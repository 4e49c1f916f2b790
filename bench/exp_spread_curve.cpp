// A5 (figure) — rumor spread curves: fraction of informed nodes per
// round for push-pull broadcast on contrasting topologies. The classic
// S-curve on well-connected graphs; a latency-staircase on bottlenecked
// weighted graphs (each step = one slow crossing). This is the
// round-level picture behind Theorem 12's aggregate bound.
//
// Deciles are averaged over --trials independent runs dispatched
// through the deterministic parallel trial runner (--threads, 0 = all
// cores); results are identical for any thread count.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/push_pull.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "util/args.h"
#include "util/table.h"

using namespace latgossip;

namespace {

/// Rounds at which the informed fraction first reaches each decile.
std::vector<Round> decile_rounds(const PushPullBroadcast& proto,
                                 std::size_t n) {
  std::vector<Round> informed_at;
  for (NodeId v = 0; v < n; ++v)
    if (proto.inform_round(v) >= 0) informed_at.push_back(
        proto.inform_round(v));
  std::sort(informed_at.begin(), informed_at.end());
  std::vector<Round> deciles;
  for (int d = 1; d <= 10; ++d) {
    const std::size_t idx =
        std::min(informed_at.size() - 1,
                 (informed_at.size() * d) / 10 == 0
                     ? 0
                     : (informed_at.size() * d) / 10 - 1);
    deciles.push_back(informed_at[idx]);
  }
  return deciles;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"seed", "trials", "threads", "million"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 61));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 5));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  // --million appends an n = 10^6 random-regular row drawn by the seeded
  // repair-by-swap sampler (~100 MB graph + a bool per node of protocol
  // state). Off by default so the quick figure stays quick.
  const bool million = args.get_bool("million");

  std::printf("A5  Spread curves: round at which each decile of nodes is "
              "informed (push-pull broadcast, mean of %zu trials)\n\n",
              trials);

  struct Cfg { const char* name; WeightedGraph g; };
  Rng gen(seed);
  std::vector<Cfg> cfgs;
  cfgs.push_back({"clique128_unit", make_clique(128)});
  cfgs.push_back({"er128_twolevel(1,30)", [&] {
                    auto g = make_erdos_renyi(128, 0.1, gen);
                    assign_two_level_latency(g, 1, 30, 0.7, gen);
                    return g;
                  }()});
  cfgs.push_back({"pathcliques8x16_bridge25", make_path_of_cliques(8, 16, 25)});
  cfgs.push_back({"ring8x16_cross20", [&] {
                    Rng r(seed + 9);
                    return make_layered_ring(8, 16, 20, r).graph;
                  }()});
  if (million)
    cfgs.push_back({"regular1M_d8_lat(1,8)", [&] {
                      auto g = make_random_regular_streaming(1'000'000, 8,
                                                             seed + 17);
                      Rng r(seed + 18);
                      assign_random_uniform_latency(g, 1, 8, r);
                      return g;
                    }()});

  Table t({"graph", "10%", "20%", "30%", "40%", "50%", "60%", "70%", "80%",
           "90%", "100%"});
  for (Cfg& c : cfgs) {
    const std::size_t n = c.g.num_nodes();
    // Each trial writes its decile vector into its own slot; averaging
    // afterwards in trial order keeps the output thread-count invariant.
    std::vector<std::vector<Round>> per_trial(trials);
    const TrialAggregate agg = run_trials(
        trials, threads, seed * 3 + 1,
        [&](std::size_t trial, Rng rng, TrialWorkspace& ws) {
          NetworkView view(c.g, false);
          auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
          proto.reset(view, 0, rng);
          SimOptions opts;
          opts.max_rounds = 5'000'000;
          opts.workspace = &ws;
          const SimResult r = run_gossip(c.g, proto, opts);
          per_trial[trial] = decile_rounds(proto, n);
          return r;
        });
    if (!agg.all_completed())
      std::printf("  [warn] incomplete on %s (%zu/%zu trials)\n", c.name,
                  agg.trials.size() - agg.num_completed, agg.trials.size());
    std::vector<double> mean_decile(10, 0.0);
    for (const auto& deciles : per_trial)
      for (int d = 0; d < 10; ++d)
        mean_decile[d] +=
            static_cast<double>(deciles[d]) / static_cast<double>(trials);
    t.add(c.name, mean_decile[0], mean_decile[1], mean_decile[2],
          mean_decile[3], mean_decile[4], mean_decile[5], mean_decile[6],
          mean_decile[7], mean_decile[8], mean_decile[9]);
  }
  t.print("rounds to reach each informed-fraction decile");
  std::printf(
      "\nreading: the unit clique shows the classic logistic S-curve "
      "(all deciles within a few rounds); bottlenecked weighted families "
      "show a staircase — each bridge/cross latency crossing adds a "
      "plateau, which is what the ell*/phi* yardstick aggregates.%s\n",
      million ? "" :
      "\n(pass --million for an n = 10^6 random-regular row via the "
      "streaming CSR generators — the asymptotic regime the paper's "
      "bounds target.)");
  return 0;
}
