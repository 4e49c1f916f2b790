// E10 — Theorem 19 / Lemma 17: EID solves all-to-all dissemination in
// O(D log^3 n) rounds; General EID pays only a constant factor for not
// knowing D (guess-and-double + termination check, Lemma 18).
//
// Part 1: D sweep at fixed n (paths of heavy edges) — rounds linear in D.
// Part 2: n sweep at small D — rounds polylog in n.
// Part 3: known D vs General EID overhead.
//
// Every row is the mean of --trials independent runs dispatched through
// the deterministic parallel trial runner (--threads, 0 = all cores).

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/distance.h"
#include "core/eid.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "util/args.h"
#include "util/table.h"

using namespace latgossip;

namespace {

std::size_t g_trials = 3;
std::size_t g_threads = 0;

double log3(double n) {
  const double l = std::log2(n);
  return l * l * l;
}

/// Mean rounds of `trials` EID(D) runs; completeness = all trials
/// reached all-to-all dissemination.
struct EidSample {
  double mean_rounds = 0.0;
  bool all_complete = false;
};

EidSample sample_eid(const WeightedGraph& g, Latency diameter_estimate,
                     std::uint64_t seed) {
  const TrialAggregate agg = run_trials(
      g_trials, g_threads, seed,
      [&](std::size_t, Rng rng, TrialWorkspace& ws) {
        EidOptions opts;
        opts.diameter_estimate = diameter_estimate;
        CompositeContext ctx;
        ctx.workspace = &ws;
        return run_eid(g, opts, own_id_rumors(g.num_nodes()), rng, &ctx).sim;
      });
  return EidSample{agg.mean_rounds(), agg.all_completed()};
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"seed", "trials", "threads"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  g_trials = static_cast<std::size_t>(args.get_int("trials", 3));
  g_threads = static_cast<std::size_t>(args.get_int("threads", 0));

  std::printf("E10 Theorem 19: EID all-to-all in O(D log^3 n)  (mean of %zu "
              "trials per row)\n\n",
              g_trials);

  // ---- Part 1: D sweep (ring of cliques, heavier bridges) -----------
  Table t1({"bridge_lat", "D", "eid_rounds", "D*log^3(n)",
            "rounds/(D log^3 n)", "complete"});
  for (Latency bridge : {1, 4, 16, 64}) {
    const auto g = make_ring_of_cliques(6, 5, bridge);
    const Latency d = weighted_diameter(g);
    const EidSample s =
        sample_eid(g, d, seed + static_cast<std::uint64_t>(bridge));
    const double yard =
        static_cast<double>(d) * log3(static_cast<double>(g.num_nodes()));
    t1.add(static_cast<long long>(bridge), static_cast<long long>(d),
           s.mean_rounds, yard, s.mean_rounds / yard,
           s.all_complete ? "yes" : "NO");
  }
  t1.print("Part 1: rounds scale linearly in D (n fixed = 30)");

  // ---- Part 2: n sweep at small diameter -----------------------------
  Table t2({"n", "D", "eid_rounds", "D*log^3(n)", "rounds/(D log^3 n)",
            "complete"});
  for (std::size_t n : {32u, 64u, 128u, 256u}) {
    Rng grng(seed * 3 + n);
    auto g = make_erdos_renyi(n, std::min(1.0, 12.0 / n), grng);
    assign_random_uniform_latency(g, 1, 4, grng);
    const Latency d = weighted_diameter(g);
    const EidSample s = sample_eid(g, d, seed * 5 + n);
    const double yard =
        static_cast<double>(d) * log3(static_cast<double>(n));
    t2.add(n, static_cast<long long>(d), s.mean_rounds, yard,
           s.mean_rounds / yard, s.all_complete ? "yes" : "NO");
  }
  t2.print("Part 2: rounds polylog in n at small D");

  // ---- Part 3: General EID (unknown D) overhead ----------------------
  Table t3({"graph", "D", "eid(D known)", "general_eid", "overhead",
            "mean_final_k", "mean_attempts"});
  struct Cfg { const char* name; WeightedGraph g; };
  Cfg cfgs[] = {
      {"path16", make_path(16)},
      {"ring4x4_bridge8", make_ring_of_cliques(4, 4, 8)},
      {"grid5x5_lat3",
       [] {
         auto g = make_grid(5, 5);
         assign_uniform_latency(g, 3);
         return g;
       }()},
  };
  for (Cfg& c : cfgs) {
    const Latency d = weighted_diameter(c.g);
    const EidSample known = sample_eid(c.g, d, seed + 77);

    std::vector<Latency> final_k(g_trials, 0);
    std::vector<std::size_t> attempts(g_trials, 0);
    bool general_ok = true;
    const TrialAggregate general = run_trials(
        g_trials, g_threads, seed + 78,
        [&](std::size_t trial, Rng rng, TrialWorkspace& ws) {
          CompositeContext ctx;
          ctx.workspace = &ws;
          const DoublingOutcome out = run_general_eid(c.g, 0, rng, 1, &ctx);
          final_k[trial] = out.final_estimate;
          attempts[trial] = out.attempts;
          return out.sim;
        });
    general_ok = general.all_completed();

    double mean_k = 0.0, mean_attempts = 0.0;
    for (std::size_t t = 0; t < g_trials; ++t) {
      mean_k += static_cast<double>(final_k[t]) /
                static_cast<double>(g_trials);
      mean_attempts += static_cast<double>(attempts[t]) /
                       static_cast<double>(g_trials);
    }
    t3.add(c.name, static_cast<long long>(d), known.mean_rounds,
           general.mean_rounds(),
           general.mean_rounds() / known.mean_rounds, mean_k,
           mean_attempts);
    if (!general_ok)
      std::printf("  [warn] general EID incomplete on %s\n", c.name);
  }
  t3.print("Part 3: guess-and-double overhead (Theorem 19)");
  std::printf(
      "\nshape checks: Part 1 ratio roughly constant in D; Part 2 ratio "
      "roughly constant in n;\nPart 3 overhead is a small constant — it "
      "can even drop below 1 because DTG's transitive relays often let "
      "General EID terminate at an estimate k well below the true "
      "diameter (its termination check verifies actual completeness, "
      "Lemma 18).\n");
  return 0;
}
