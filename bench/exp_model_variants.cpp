// A3 (ablation) — the model variations discussed in the paper:
//
// Part 1: push vs push-pull (footnote 2: without pull a star needs
// Ω(nD) time; push-pull needs ~D).
// Part 2: blocking vs non-blocking communication (Appendix E's model).
// Part 3: bounded in-degree (Conclusion, citing Daum et al.): capping
// accepted incoming connections per round.

#include <cmath>
#include <cstdio>
#include <string>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/table.h"

using namespace latgossip;

namespace {

double mean_rounds_push_only(const WeightedGraph& g, int trials,
                             std::uint64_t seed) {
  Accumulator acc;
  for (int t = 0; t < trials; ++t) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(seed + t), LegRule::kPushOnly);
    SimOptions opts;
    opts.max_rounds = 5'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    acc.add(static_cast<double>(r.rounds));
  }
  return acc.mean();
}

double mean_rounds_push_pull(const WeightedGraph& g, int trials,
                             std::uint64_t seed, bool blocking = false) {
  Accumulator acc;
  for (int t = 0; t < trials; ++t) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(seed + t));
    SimOptions opts;
    opts.blocking = blocking;
    opts.max_rounds = 5'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    acc.add(static_cast<double>(r.rounds));
  }
  return acc.mean();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"trials", "seed"});
  const int trials = static_cast<int>(args.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 53));

  std::printf("A3  Model-variation ablations\n\n");

  // ---- Part 1: push-only / pull-only vs push-pull on weighted stars --
  Table t1({"n", "edge_latency D", "push_only", "pull_only", "push_pull",
            "n*ln(n) (theory, push)", "push_only/push_pull"});
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    const Latency lat = 10;
    auto g = make_star(n);
    assign_uniform_latency(g, lat);
    const double po = mean_rounds_push_only(g, trials, seed);
    Accumulator pull_acc;
    for (int t = 0; t < trials; ++t) {
      NetworkView view(g, false);
      PushPullBroadcast proto(view, 0, Rng(seed + 400 + t),
                              LegRule::kResponseOnly);
      SimOptions opts;
      opts.max_rounds = 5'000'000;
      pull_acc.add(static_cast<double>(run_gossip(g, proto, opts).rounds));
    }
    const double pp = mean_rounds_push_pull(g, trials, seed + 1);
    const double theory =
        static_cast<double>(n) * std::log(static_cast<double>(n));
    t1.add(n, static_cast<long long>(lat), po, pull_acc.mean(), pp, theory,
           po / pp);
  }
  t1.print("Part 1: footnote 2 — push-only pays ~n ln n on a star while "
           "push-pull (and pull-only, from the hub) finishes in ~D");

  // ---- Part 2: blocking model ---------------------------------------
  Table t2({"graph", "non_blocking", "blocking", "slowdown"});
  struct Cfg { const char* name; WeightedGraph g; };
  Cfg cfgs[] = {
      {"clique24_lat8",
       [] {
         auto g = make_clique(24);
         assign_uniform_latency(g, 8);
         return g;
       }()},
      {"cycle24_lat4",
       [] {
         auto g = make_cycle(24);
         assign_uniform_latency(g, 4);
         return g;
       }()},
      {"grid5x5_lat6",
       [] {
         auto g = make_grid(5, 5);
         assign_uniform_latency(g, 6);
         return g;
       }()},
  };
  for (Cfg& c : cfgs) {
    const double nb = mean_rounds_push_pull(c.g, trials, seed + 2, false);
    const double bl = mean_rounds_push_pull(c.g, trials, seed + 2, true);
    t2.add(c.name, nb, bl, bl / nb);
  }
  t2.print("Part 2: Appendix E's blocking model — losing the "
           "non-blocking pipeline costs a latency-dependent factor");

  // ---- Part 3: bounded in-degree -------------------------------------
  Table t3({"in_degree_cap", "rounds", "rejected", "complete"});
  const auto star = make_star(48);
  for (std::size_t cap : {0u, 1u, 2u, 4u, 8u}) {
    NetworkView view(star, false);
    PushPullGossip proto(view, GossipGoal::kAllToAll, 0, own_id_rumors(48),
                         Rng{}, ContactRule::kRoundRobin);
    SimOptions opts;
    opts.max_incoming_per_round = cap;
    opts.max_rounds = 1'000'000;
    const SimResult r = run_gossip(star, proto, opts);
    t3.add(cap == 0 ? std::string("unlimited") : std::to_string(cap),
           r.rounds, r.exchanges_rejected, r.completed ? "yes" : "NO");
  }
  t3.print("Part 3: Conclusion's bounded in-degree model on a 48-star — "
           "the hub's cap throttles dissemination");
  return 0;
}
