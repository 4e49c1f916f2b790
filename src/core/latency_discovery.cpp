#include "core/latency_discovery.h"

#include "sim/dispatch.h"

#include <stdexcept>

#include "core/eid.h"
#include "core/rr_broadcast.h"
#include "core/termination.h"

namespace latgossip {

ProbeProtocol::ProbeProtocol(const NetworkView& view, Latency wait_budget)
    : view_(view),
      wait_budget_(wait_budget),
      discovered_(view.graph().num_edges()) {
  if (wait_budget < 1)
    throw std::invalid_argument("probe: wait budget must be >= 1");
  Round max_degree = 0;
  for (NodeId u = 0; u < view.num_nodes(); ++u)
    max_degree = std::max<Round>(max_degree,
                                 static_cast<Round>(view.degree(u)));
  deadline_ = max_degree + wait_budget;
}

std::optional<HalfEdge> ProbeProtocol::select_contact(NodeId u, Round r) {
  const auto neigh = view_.neighbors(u);
  if (static_cast<std::size_t>(r) >= neigh.size()) return std::nullopt;
  return neigh[static_cast<std::size_t>(r)];
}

void ProbeProtocol::deliver(NodeId, NodeId, Payload, EdgeId e, Round start,
                            Round now, Leg) {
  if (now <= deadline_) discovered_[e] = now - start;
}

bool ProbeProtocol::done(Round r) const { return r >= deadline_; }

DiscoveryOutcome discover_latencies(const WeightedGraph& g,
                                    Latency wait_budget) {
  NetworkView view(g, /*latencies_known=*/false);
  ProbeProtocol probe(view, wait_budget);
  SimOptions opts;
  opts.max_rounds = static_cast<Round>(g.max_degree()) + wait_budget + 1;
  opts.stop_when_idle = false;  // run the full window
  DiscoveryOutcome out;
  out.sim = dispatch_gossip(g, probe, opts);
  out.edge_latencies = probe.edge_latencies();
  for (const auto& lat : out.edge_latencies)
    if (lat.has_value()) ++out.edges_discovered;
  return out;
}

UnknownLatencyEidOutcome run_unknown_latency_eid(const WeightedGraph& g,
                                                 std::size_t n_hat,
                                                 Rng& rng) {
  const std::size_t n = g.num_nodes();
  UnknownLatencyEidOutcome out;
  out.rumors = own_id_rumors(n);
  if (n <= 1) {
    out.success = true;
    out.final_estimate = 1;
    return out;
  }
  const Latency k_limit =
      2 * static_cast<Latency>(n) * std::max<Latency>(g.max_latency(), 1);
  NetworkView known(g, /*latencies_known=*/true);

  for (Latency k = 1; k <= k_limit; k *= 2) {
    ++out.attempts;
    // Probe phase with budget k: Δ + k rounds; afterwards every latency
    // <= k is known, which is all EID(k) ever reads.
    DiscoveryOutcome probes = discover_latencies(g, k);
    out.sim.accumulate(probes.sim);

    EidOptions options;
    options.diameter_estimate = k;
    options.n_hat = n_hat;
    EidOutcome attempt = run_eid(g, options, std::move(out.rumors), rng);
    out.sim.accumulate(attempt.sim);
    out.rumors = std::move(attempt.rumors);

    const DirectedGraph& spanner = attempt.spanner;
    auto broadcast = [&]() {
      RRBroadcast rr(known, spanner, k, own_id_rumors(n));
      SimOptions opts;
      opts.max_rounds = rr.budget() + k + 2;
      SimResult sim = dispatch_gossip(g, rr, opts);
      return std::make_pair(rr.take_rumors(), sim);
    };
    const CheckOutcome check = run_termination_check(g, out.rumors, broadcast);
    out.sim.accumulate(check.sim);
    if (!check.failed) {
      out.success = true;
      out.final_estimate = k;
      return out;
    }
  }
  out.success = false;
  out.final_estimate = k_limit;
  return out;
}

}  // namespace latgossip
