#include "core/latency_discovery.h"

#include <stdexcept>

#include "core/eid.h"
#include "obs/metrics.h"
#include "sim/dispatch.h"

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
                                    Latency wait_budget,
                                    CompositeContext* ctx) {
  PhaseScope phase(ctx, "eid/latency_discovery");
  NetworkView view(g, /*latencies_known=*/false);
  ProbeProtocol probe(view, wait_budget);
  DiscoveryOutcome out;
  out.sim = run_in_context(
      g, probe, ctx, static_cast<Round>(g.max_degree()) + wait_budget + 1,
      /*stop_when_idle=*/false);  // run the full window
  out.edge_latencies = probe.edge_latencies();
  for (const auto& lat : out.edge_latencies)
    if (lat.has_value()) ++out.edges_discovered;
  return out;
}

DoublingOutcome run_unknown_latency_eid(const WeightedGraph& g,
                                        std::size_t n_hat, Rng& rng,
                                        CompositeContext* ctx) {
  EidOptions options;
  options.n_hat = n_hat;
  const AttemptFn attempt = [&](Latency k, std::vector<Bitset>& rumors,
                                SimResult& sim) {
    // Probe phase with budget k: Δ + k rounds; afterwards every latency
    // <= k is known, which is all EID(k) ever reads.
    sim.accumulate(discover_latencies(g, k, ctx).sim);
    options.diameter_estimate = k;
    return run_eid_attempt(g, options, rumors, sim, rng, ctx);
  };
  return run_guess_and_double(g, 1, attempt, ctx, "eid/termination_check");
}

}  // namespace latgossip
