// A8 (extension) — the Conclusion asks whether "a more careful choice of
// neighbors" helps. With known latencies, biasing push-pull's neighbor
// choice by 1/latency^ρ (spatial-gossip style) concentrates exchanges on
// the fast subgraph. This bench sweeps ρ on two-level graphs and shows
// the win grows with the fast/slow latency gap — and that ρ too large is
// safe but yields diminishing returns.

#include <cstdio>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

using namespace latgossip;

namespace {

double mean_rounds_biased(const WeightedGraph& g, double rho, int trials,
                          std::uint64_t seed) {
  Accumulator acc;
  for (int t = 0; t < trials; ++t) {
    NetworkView view(g, true);
    PushPullBroadcast proto(view, 0, rho,
                            Rng(seed + static_cast<std::uint64_t>(t)));
    SimOptions opts;
    opts.max_rounds = 2'000'000;
    acc.add(static_cast<double>(run_gossip(g, proto, opts).rounds));
  }
  return acc.mean();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"n", "trials", "seed"});
  const auto n = static_cast<std::size_t>(args.get_int("n", 48));
  const int trials = static_cast<int>(args.get_int("trials", 12));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 73));

  std::printf("A8  Latency-biased neighbor choice (Conclusion's open "
              "question)\n");
  std::printf("    clique of %zu, 40%% fast edges; mean over %d trials\n",
              n, trials);

  Table t({"slow_latency", "rho=0 (uniform)", "rho=1", "rho=2", "rho=4",
           "best_speedup"});
  for (Latency slow : {4, 16, 64, 256}) {
    auto g = make_clique(n);
    Rng gen(seed + static_cast<std::uint64_t>(slow));
    assign_two_level_latency(g, 1, slow, 0.4, gen);
    const double r0 = mean_rounds_biased(g, 0.0, trials, seed);
    const double r1 = mean_rounds_biased(g, 1.0, trials, seed + 1);
    const double r2 = mean_rounds_biased(g, 2.0, trials, seed + 2);
    const double r4 = mean_rounds_biased(g, 4.0, trials, seed + 3);
    const double best = std::min({r1, r2, r4});
    t.add(static_cast<long long>(slow), r0, r1, r2, r4, r0 / best);
  }
  t.print("broadcast rounds vs bias exponent rho");
  std::printf(
      "\nreading: the speedup of biased selection grows with the fast/slow "
      "gap — careful neighbor choice does help once latencies are known, "
      "consistent with the spanner algorithm's premise; uniform push-pull "
      "remains the only option when they are not.\n");
  return 0;
}
