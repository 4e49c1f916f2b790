// db_replication — anti-entropy between database replicas across
// datacenters (the paper's "distributed database replication" motivation,
// after Demers et al.'s epidemic algorithms).
//
// Topology: `dcs` datacenters of `replicas` nodes each. Within a
// datacenter every pair of replicas is connected by a LAN link
// (latency 1); between datacenters a few WAN links with latencies drawn
// from a heavy-tailed distribution connect random replica pairs.
//
// Scenario: every replica starts with one fresh write; anti-entropy must
// spread all writes to all replicas. We compare
//   - push-pull anti-entropy (no latency knowledge, robust), and
//   - the spanner route (measure RTTs first, then EID) —
// and relate both to the network's φ*/ℓ* structure.
//
// Run:  ./db_replication [--dcs=4] [--replicas=8] [--wan_links=3]
//                        [--seed=7]

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "analysis/conductance.h"
#include "analysis/distance.h"
#include "app/anti_entropy.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/table.h"

using namespace latgossip;

namespace {

/// Datacenter mesh: cliques of replicas, sparse heavy-tailed WAN links.
WeightedGraph build_fleet(std::size_t dcs, std::size_t replicas,
                          std::size_t wan_links_per_pair, Rng& rng) {
  GraphBuilder builder(dcs * replicas);
  auto node = [replicas](std::size_t dc, std::size_t r) {
    return static_cast<NodeId>(dc * replicas + r);
  };
  for (std::size_t dc = 0; dc < dcs; ++dc)
    for (std::size_t i = 0; i < replicas; ++i)
      for (std::size_t j = i + 1; j < replicas; ++j)
        builder.add_edge(node(dc, i), node(dc, j), 1);
  // A WAN link joins two DCs, so it can only repeat another WAN link.
  std::set<std::pair<NodeId, NodeId>> wan;
  for (std::size_t a = 0; a < dcs; ++a)
    for (std::size_t b = a + 1; b < dcs; ++b)
      for (std::size_t l = 0; l < wan_links_per_pair; ++l) {
        // WAN RTTs: 20..200 rounds, heavy tail.
        const auto rtt = static_cast<Latency>(
            20.0 * std::pow(1.0 - rng.uniform_double(), -0.7));
        const NodeId u = node(a, rng.uniform(replicas));
        const NodeId v = node(b, rng.uniform(replicas));
        if (wan.insert({u, v}).second)
          builder.add_edge(u, v, std::min<Latency>(rtt, 200));
      }
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"dcs", "replicas", "wan_links", "seed"});
  const auto dcs = static_cast<std::size_t>(args.get_int("dcs", 4));
  const auto replicas = static_cast<std::size_t>(args.get_int("replicas", 8));
  const auto wan = static_cast<std::size_t>(args.get_int("wan_links", 3));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));

  const WeightedGraph g = build_fleet(dcs, replicas, wan, rng);
  const std::size_t n = g.num_nodes();
  std::printf("replica fleet: %zu DCs x %zu replicas = %zu nodes, %zu "
              "links, max RTT %lld\n",
              dcs, replicas, n, g.num_edges(),
              static_cast<long long>(g.max_latency()));
  const Latency d = weighted_diameter(g);
  std::printf("weighted diameter (worst replica-to-replica sync path): "
              "%lld rounds\n\n", static_cast<long long>(d));

  Table table({"strategy", "rounds", "exchanges", "complete"});

  // --- push-pull anti-entropy -----------------------------------------
  {
    NetworkView view(g, /*latencies_known=*/false);
    PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                         own_id_rumors(n), rng.fork(1));
    SimOptions opts;
    opts.max_rounds = 2'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    table.add("push-pull anti-entropy", r.rounds, r.activations,
              r.completed ? "yes" : "NO");
  }

  // --- measure RTTs, then the spanner route ---------------------------
  {
    Rng branch = rng.fork(2);
    const DoublingOutcome out = run_unknown_latency_eid(g, 0, branch);
    table.add("probe + spanner (EID)", out.sim.rounds, out.sim.activations,
              out.sim.completed ? "yes" : "NO");
  }

  // --- real data: LWW anti-entropy with conflicting writes -----------
  {
    std::vector<KvStore> stores;
    for (NodeId v = 0; v < n; ++v) {
      KvStore s(v);
      s.put("row-" + std::to_string(v), "insert by replica " +
                                            std::to_string(v));
      s.put("config/leader", "candidate-" + std::to_string(v));  // conflict!
      stores.push_back(std::move(s));
    }
    NetworkView view(g, /*latencies_known=*/false);
    AntiEntropy proto(view, std::move(stores), rng.fork(3));
    SimOptions opts;
    opts.max_rounds = 2'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    table.add("LWW anti-entropy (real rows)", r.rounds, r.activations,
              proto.converged() ? "yes" : "NO");
    const KvEntry* winner = proto.stores()[0].get("config/leader");
    std::printf("conflicting 'config/leader' writes resolved identically "
                "everywhere: %s\n",
                winner != nullptr ? winner->value.c_str() : "(missing)");
  }

  table.print("all writes on all replicas (all-to-all dissemination)");

  if (n <= 20) {
    const auto wc = weighted_conductance_exact(g);
    std::printf("\nweighted conductance phi* = %.4f at ell* = %lld — the "
                "fleet's sync speed limit per Theorem 12.\n",
                wc.phi_star, static_cast<long long>(wc.ell_star));
  } else {
    std::printf(
        "\ntakeaway: push-pull needs no RTT measurements and is robust; "
        "the spanner route pays a polylog setup cost but routes every "
        "write along near-shortest paths once built (Theorem 20 runs "
        "both and keeps the winner).\n");
  }
  return 0;
}
