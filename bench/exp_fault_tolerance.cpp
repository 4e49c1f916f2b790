// A1 (ablation) — Conclusion: "push-pull is relatively robust to
// failures, while our other approaches are not."
//
// Part 1: broadcast under increasing link-loss rates — push-pull
// completes with graceful slowdown.
// Part 2: node crashes mid-run — push-pull informs all survivors; RR
// broadcast over the sparse spanner loses every rumor routed through a
// crashed relay.
// Part 3: latency jitter (footnote 1) — push-pull is oblivious to it.

#include <cstdio>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/dynamics.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

using namespace latgossip;

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"n", "trials", "seed"});
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const int trials = static_cast<int>(args.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 43));

  std::printf("A1  Robustness ablation (Conclusion)\n\n");

  Rng gen(seed);
  auto g = make_erdos_renyi(n, std::min(1.0, 10.0 / n), gen);
  assign_two_level_latency(g, 1, 12, 0.7, gen);

  // ---- Part 1: link loss ------------------------------------------
  Table t1({"drop_prob", "completed_runs", "mean_rounds", "mean_dropped"});
  for (double p : {0.0, 0.1, 0.2, 0.4, 0.6}) {
    Accumulator rounds, dropped;
    int completed = 0;
    for (int t = 0; t < trials; ++t) {
      NetworkView view(g, false);
      PushPullBroadcast proto(view, 0,
                              Rng(seed + static_cast<std::uint64_t>(t)));
      DynamicSpec spec;
      spec.drop_prob = p;
      spec.fault_seed = seed * 3 + static_cast<std::uint64_t>(t);
      DynamicPlan plan(n, g.num_edges(), spec);
      SimOptions opts;
      opts.dynamics = &plan;
      opts.max_rounds = 1'000'000;
      const SimResult r = run_gossip(g, proto, opts);
      if (r.completed) {
        ++completed;
        rounds.add(static_cast<double>(r.rounds));
      }
      dropped.add(static_cast<double>(r.messages_dropped));
    }
    t1.add(p, completed, rounds.count() ? rounds.mean() : 0.0,
           dropped.mean());
  }
  t1.print("Part 1: push-pull broadcast under link loss "
           "(graceful degradation)");

  // ---- Part 2: crashes --------------------------------------------
  // Push-pull runs on the full graph and reaches every survivor; a
  // sparse dissemination overlay (the greedy spanner — near-tree, the
  // cheapest overlay one would deploy) is partitioned when an internal
  // relay dies, losing rumor pairs even between alive nodes.
  Table t2({"crashed", "pp_survivors_informed", "overlay_pairs_lost"});
  for (std::size_t crashes : {0u, 2u, 4u, 8u}) {
    double pp_frac = 0.0;
    double rr_lost = 0.0;
    for (int t = 0; t < trials; ++t) {
      DynamicSpec spec;
      spec.crash_count = crashes;  // at round 0, sparing the source 0
      spec.fault_seed =
          seed * 7 + crashes * 101 + static_cast<std::uint64_t>(t);
      DynamicPlan plan(n, g.num_edges(), spec);
      {
        NetworkView view(g, false);
        PushPullBroadcast proto(view, 0,
                                Rng(seed + 31 * static_cast<std::uint64_t>(t)));
        SimOptions opts;
        opts.dynamics = &plan;
        opts.max_rounds = 20'000;  // far beyond the lossless ~10 rounds
        run_gossip(g, proto, opts);
        std::size_t informed = 0, alive = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (plan.crashed(v, 1'000'000'000)) continue;
          ++alive;
          if (proto.informed(v)) ++informed;
        }
        pp_frac += static_cast<double>(informed) /
                   static_cast<double>(alive) / trials;
      }
      {
        const auto overlay = build_greedy_spanner(g, 3);
        NetworkView view(g, true);
        RRBroadcast proto(view, overlay, g.max_latency() * 12,
                          own_id_rumors(n));
        SimOptions opts;
        opts.dynamics = &plan;
        opts.max_rounds = proto.budget() * 2;
        run_gossip(g, proto, opts);
        std::size_t missing = 0, alive_pairs = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (plan.crashed(v, 1'000'000'000)) continue;
          for (NodeId u = 0; u < n; ++u) {
            if (u == v || plan.crashed(u, 1'000'000'000)) continue;
            ++alive_pairs;
            if (!proto.rumors()[v].test(u)) ++missing;
          }
        }
        rr_lost += static_cast<double>(missing) /
                   static_cast<double>(alive_pairs) / trials;
      }
    }
    t2.add(crashes, pp_frac, rr_lost);
  }
  t2.print("Part 2: crashes at round 0 — push-pull informs all "
           "survivors; the sparse overlay loses alive-pair rumors");

  // ---- Part 3: jitter -----------------------------------------------
  Table t3({"jitter", "pp_completed", "mean_rounds"});
  for (Latency spread : {0, 2, 6, 10}) {
    Accumulator rounds;
    int completed = 0;
    for (int t = 0; t < trials; ++t) {
      NetworkView view(g, false);
      PushPullBroadcast proto(view, 0,
                              Rng(seed + 91 * static_cast<std::uint64_t>(t)));
      DynamicSpec spec;
      spec.jitter_spread = spread;
      spec.jitter_seed = seed * 13 + static_cast<std::uint64_t>(t);
      DynamicPlan plan(n, g.num_edges(), spec);
      SimOptions opts;
      opts.dynamics = &plan;
      opts.max_rounds = 1'000'000;
      const SimResult r = run_gossip(g, proto, opts);
      if (r.completed) {
        ++completed;
        rounds.add(static_cast<double>(r.rounds));
      }
    }
    t3.add(static_cast<long long>(spread), completed, rounds.mean());
  }
  t3.print("Part 3: push-pull under latency jitter (footnote 1) — "
           "oblivious to fluctuation");
  return 0;
}
