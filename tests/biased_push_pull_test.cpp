// Tests for latency-biased push-pull (the spatial-gossip-style neighbor
// choice answering the paper's "more careful choice of neighbors"
// question).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/push_pull.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace latgossip {
namespace {

SimResult run_biased(const WeightedGraph& g, double rho, std::uint64_t seed,
                     Round max_rounds = 1'000'000) {
  NetworkView view(g, true);
  PushPullBroadcast proto(view, 0, rho, Rng(seed));
  SimOptions opts;
  opts.max_rounds = max_rounds;
  return run_gossip(g, proto, opts);
}

TEST(BiasedPushPull, RhoZeroBehavesLikeUniform) {
  // With rho = 0 all neighbors are equally likely; completion times on a
  // clique should be statistically indistinguishable from uniform
  // push-pull (compare means over seeds).
  const auto g = make_clique(24);
  Accumulator biased, uniform;
  for (std::uint64_t s = 1; s <= 20; ++s) {
    biased.add(static_cast<double>(run_biased(g, 0.0, s).rounds));
    NetworkView view(g, false);
    PushPullBroadcast pp(view, 0, Rng(s));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    uniform.add(static_cast<double>(run_gossip(g, pp, opts).rounds));
  }
  EXPECT_NEAR(biased.mean(), uniform.mean(), 3.0);
}

TEST(BiasedPushPull, CompletesOnWeightedGraphs) {
  Rng gen(3);
  auto g = make_erdos_renyi(30, 0.25, gen);
  assign_two_level_latency(g, 1, 50, 0.5, gen);
  const SimResult r = run_biased(g, 2.0, 7);
  EXPECT_TRUE(r.completed);
}

TEST(BiasedPushPull, BiasAvoidsSlowEdges) {
  // Clique where most edges are slow: biased selection (rho = 2)
  // strongly prefers the fast subgraph and should beat uniform
  // push-pull on average.
  auto g = make_clique(32);
  Rng gen(5);
  assign_two_level_latency(g, 1, 100, 0.4, gen);
  Accumulator uniform, biased;
  for (std::uint64_t s = 1; s <= 15; ++s) {
    biased.add(static_cast<double>(run_biased(g, 2.0, s * 7).rounds));
    NetworkView view(g, false);
    PushPullBroadcast pp(view, 0, Rng(s * 7));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    uniform.add(static_cast<double>(run_gossip(g, pp, opts).rounds));
  }
  EXPECT_LT(biased.mean(), uniform.mean());
}

TEST(BiasedPushPull, ExtremeBiasStillCorrectWhenFastGraphDisconnected) {
  // Path whose middle edge is slow: even with heavy bias the protocol
  // must eventually cross it (bias never zeroes a probability).
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 40}, {2, 3, 1}});
  const SimResult r = run_biased(g, 3.0, 11);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 40);
}

TEST(BiasedPushPull, ValidatesInput) {
  const auto g = make_path(3);
  NetworkView known(g, true);
  NetworkView unknown(g, false);
  EXPECT_THROW(PushPullBroadcast(known, 9, 1.0, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(PushPullBroadcast(known, 0, -1.0, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(PushPullBroadcast(unknown, 0, 1.0, Rng(1)),
               std::invalid_argument);
  // NaN weights every neighbor NaN and ρ = +∞ keeps only latency-1
  // edges: either stalls a broadcast, so both are rejected.
  EXPECT_THROW(PushPullBroadcast(known, 0, std::nan(""), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(PushPullBroadcast(
                   known, 0, std::numeric_limits<double>::infinity(), Rng(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
