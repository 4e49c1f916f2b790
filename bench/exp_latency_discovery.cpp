// E13 — Section 4.2: latencies of all "important" edges (latency <= D)
// can be discovered in Δ + D rounds, after which the known-latency
// machinery applies — giving the Õ(D + Δ) branch of Theorem 20 in the
// unknown-latency model.
//
// Part 1: probe-phase cost and coverage across graph shapes.
// Part 2: full unknown-latency EID (probe + EID + check per doubling)
// vs push-pull on the same graphs.

#include <cstdio>

#include "analysis/distance.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/table.h"

using namespace latgossip;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"seed"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 41));

  std::printf("E13 Section 4.2: latency discovery in Delta + D rounds\n\n");

  struct Cfg { const char* name; WeightedGraph g; };
  Rng gen(seed);
  Cfg cfgs[] = {
      {"clique24_lat1..8",
       [&] {
         auto g = make_clique(24);
         assign_random_uniform_latency(g, 1, 8, gen);
         return g;
       }()},
      {"star32_lat1..6",
       [&] {
         auto g = make_star(32);
         assign_random_uniform_latency(g, 1, 6, gen);
         return g;
       }()},
      {"grid6x6_lat1..5",
       [&] {
         auto g = make_grid(6, 6);
         assign_random_uniform_latency(g, 1, 5, gen);
         return g;
       }()},
      {"er48_twolevel(1,40)",
       [&] {
         auto g = make_erdos_renyi(48, 0.2, gen);
         assign_two_level_latency(g, 1, 40, 0.7, gen);
         return g;
       }()},
  };

  Table t1({"graph", "Delta", "D", "probe_rounds", "Delta+D",
            "edges", "discovered(<=D)", "undiscovered(>D)"});
  for (Cfg& c : cfgs) {
    const Latency d = weighted_diameter(c.g);
    const DiscoveryOutcome out = discover_latencies(c.g, d);
    std::size_t slow = 0;
    for (const Edge& e : c.g.edges())
      if (e.latency > d) ++slow;
    t1.add(c.name, c.g.max_degree(), static_cast<long long>(d),
           out.sim.rounds,
           static_cast<long long>(
               static_cast<Latency>(c.g.max_degree()) + d),
           c.g.num_edges(), out.edges_discovered, slow);
  }
  t1.print("Part 1: probe phase — every latency <= D learned in "
           "Delta + D rounds");

  Table t2({"graph", "unknown_EID_rounds", "final_k", "pushpull_rounds",
            "faster"});
  for (Cfg& c : cfgs) {
    Rng rng(seed * 3 + 1);
    const UnknownLatencyEidOutcome eid =
        run_unknown_latency_eid(c.g, 0, rng);
    NetworkView view(c.g, false);
    PushPullGossip pp(view, GossipGoal::kAllToAll, 0,
                      own_id_rumors(c.g.num_nodes()),
                      Rng(seed * 5 + 2));
    SimOptions opts;
    opts.max_rounds = 5'000'000;
    const SimResult ppr = run_gossip(c.g, pp, opts);
    t2.add(c.name, eid.sim.rounds,
           static_cast<long long>(eid.final_estimate), ppr.rounds,
           eid.sim.rounds < ppr.rounds ? "discovery+EID" : "push-pull");
    if (!eid.success) std::printf("  [warn] EID branch failed on %s\n",
                                  c.name);
  }
  t2.print("Part 2: discovery + EID vs push-pull (unknown latencies)");
  std::printf(
      "\nshape check: probe rounds equal Delta + D exactly; edges slower "
      "than D stay unknown by design ('clearly we do not want to use any "
      "edge with latency > D').\n");
  return 0;
}
