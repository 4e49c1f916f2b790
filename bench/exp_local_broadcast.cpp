// A4 (ablation) — local broadcast subroutines (Section 5.1): the paper
// builds on deterministic DTG (O(ℓ log² n)); the randomized alternative
// contacts a uniformly random not-yet-heard neighbor per superround.
//
// Part 1: rounds and message bits of ℓ-DTG vs the randomized subroutine
// across topologies.
// Part 2: EID end-to-end with each discovery subroutine.

#include <cstdio>

#include "analysis/distance.h"
#include "core/dtg.h"
#include "core/eid.h"
#include "core/random_local_broadcast.h"
#include "core/rr_broadcast.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

using namespace latgossip;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"trials", "seed"});
  const int trials = static_cast<int>(args.get_int("trials", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 59));

  std::printf("A4  Local-broadcast subroutine ablation (Section 5.1)\n\n");

  struct Cfg { const char* name; WeightedGraph g; Latency ell; };
  Rng gen(seed);
  Cfg cfgs[] = {
      {"clique64", make_clique(64), 1},
      {"star64", make_star(64), 1},
      {"grid8x8_lat3",
       [] {
         auto g = make_grid(8, 8);
         assign_uniform_latency(g, 3);
         return g;
       }(),
       3},
      {"er64_lat1..4",
       [&] {
         auto g = make_erdos_renyi(64, 0.15, gen);
         assign_random_uniform_latency(g, 1, 4, gen);
         return g;
       }(),
       4},
  };

  Table t1({"graph", "dtg_rounds", "dtg_Mbits", "rnd_rounds",
            "rnd_Mbits", "rnd/dtg rounds"});
  for (Cfg& c : cfgs) {
    SimResult dtg_result;
    {
      NetworkView view(c.g, true);
      DtgLocalBroadcast proto(
          view, c.ell, own_id_rumors(c.g.num_nodes()));
      SimOptions opts;
      opts.stop_when_idle = false;
      opts.max_rounds = 2'000'000;
      dtg_result = run_gossip(c.g, proto, opts);
    }
    Accumulator rnd_rounds, rnd_bits;
    for (int t = 0; t < trials; ++t) {
      NetworkView view(c.g, true);
      RandomLocalBroadcast proto(
          view, c.ell,
          own_id_rumors(c.g.num_nodes()),
          Rng(seed + static_cast<std::uint64_t>(t) * 31));
      SimOptions opts;
      opts.stop_when_idle = false;
      opts.max_rounds = 2'000'000;
      const SimResult r = run_gossip(c.g, proto, opts);
      rnd_rounds.add(static_cast<double>(r.rounds));
      rnd_bits.add(static_cast<double>(r.payload_bits));
    }
    t1.add(c.name, dtg_result.rounds,
           static_cast<double>(dtg_result.payload_bits) / 1e6,
           rnd_rounds.mean(), rnd_bits.mean() / 1e6,
           rnd_rounds.mean() / static_cast<double>(dtg_result.rounds));
  }
  t1.print("Part 1: deterministic DTG vs randomized local broadcast");

  Table t2({"graph", "eid_dtg_rounds", "eid_rnd_rounds", "both complete"});
  struct ECfg { const char* name; WeightedGraph g; };
  ECfg ecfgs[] = {
      {"ring4x4_bridge6", make_ring_of_cliques(4, 4, 6)},
      {"grid5x5_lat2",
       [] {
         auto g = make_grid(5, 5);
         assign_uniform_latency(g, 2);
         return g;
       }()},
  };
  for (ECfg& c : ecfgs) {
    const Latency d = weighted_diameter(c.g);
    const std::size_t n = c.g.num_nodes();
    Round rounds[2] = {0, 0};
    bool ok = true;
    for (int variant = 0; variant < 2; ++variant) {
      Rng rng(seed + 7);
      EidOptions opts;
      opts.diameter_estimate = d;
      opts.randomized_local_broadcast = (variant == 1);
      const EidOutcome out = run_eid(c.g, opts, own_id_rumors(n), rng);
      rounds[variant] = out.sim.rounds;
      ok = ok && out.all_to_all;
    }
    t2.add(c.name, rounds[0], rounds[1], ok ? "yes" : "NO");
  }
  t2.print("Part 2: EID end-to-end with each discovery subroutine");
  std::printf(
      "\nreading: the randomized subroutine is typically faster on "
      "average (e.g. a star finishes in one superround: every leaf "
      "contacts the hub simultaneously), but only DTG carries the "
      "deterministic O(ell log^2 n) worst-case guarantee the paper's "
      "Theorem 14 analysis builds on. Both leave EID correct.\n");
  return 0;
}
