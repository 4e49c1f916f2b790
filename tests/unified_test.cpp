// Tests for the unified dissemination algorithm (Theorem 20).

#include <gtest/gtest.h>

#include "core/unified.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"

namespace latgossip {
namespace {

TEST(Unified, CompletesKnownLatencies) {
  auto g = make_ring_of_cliques(3, 4, 3);
  Rng rng(1);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  EXPECT_TRUE(out.sim.completed);
  EXPECT_TRUE(out.push_pull_completed);
  EXPECT_TRUE(out.spanner_completed);
  EXPECT_EQ(out.sim.rounds,
            std::min(out.push_pull_rounds, out.spanner_rounds));
}

TEST(Unified, CompletesUnknownLatencies) {
  Rng gen(3);
  auto g = make_erdos_renyi(12, 0.35, gen);
  assign_random_uniform_latency(g, 1, 4, gen);
  Rng rng(5);
  UnifiedOptions opts;
  opts.latencies_known = false;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  EXPECT_TRUE(out.sim.completed);
  EXPECT_TRUE(out.spanner_completed);
}

TEST(Unified, PushPullWinsOnWellConnectedGraph) {
  // Unit clique: push-pull finishes in O(log n); EID pays its polylog
  // overhead, so push-pull should win.
  const auto g = make_clique(24);
  Rng rng(7);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  ASSERT_TRUE(out.sim.completed);
  EXPECT_EQ(out.winner, UnifiedWinner::kPushPull);
}

TEST(Unified, WinnerHasMinimumRounds) {
  auto g = make_dumbbell(5, 2, 4);
  Rng rng(9);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  ASSERT_TRUE(out.sim.completed);
  if (out.winner == UnifiedWinner::kPushPull) {
    EXPECT_EQ(out.sim.rounds, out.push_pull_rounds);
    if (out.spanner_completed) {
      EXPECT_LE(out.push_pull_rounds, out.spanner_rounds);
    }
  } else {
    EXPECT_EQ(out.sim.rounds, out.spanner_rounds);
  }
}

TEST(Unified, PushPullCapGivesUpButSpannerStillFinishes) {
  auto g = make_ring_of_cliques(3, 3, 2);
  Rng rng(11);
  UnifiedOptions opts;
  opts.latencies_known = true;
  opts.push_pull_cap = 1;  // force the push-pull branch to time out
  const UnifiedOutcome out = run_unified(g, opts, rng);
  EXPECT_FALSE(out.push_pull_completed);
  EXPECT_TRUE(out.spanner_completed);
  EXPECT_EQ(out.winner, UnifiedWinner::kSpanner);
  EXPECT_TRUE(out.sim.completed);
}

TEST(Unified, EachBranchGetsTheWholeBudget) {
  // The branches run in parallel, so each may spend the whole budget;
  // the clock counts both.
  auto g = make_ring_of_cliques(3, 3, 2);
  for (const bool known : {false, true}) {
    CompositeContext ctx;
    ctx.rounds_left = 5;
    UnifiedOptions opts;
    opts.latencies_known = known;
    Rng rng(11);
    const UnifiedOutcome out = run_unified(g, opts, rng, &ctx);
    EXPECT_EQ(out.push_pull_rounds, 5) << "known=" << known;
    EXPECT_EQ(out.spanner_rounds, 5) << "known=" << known;
    EXPECT_FALSE(out.sim.completed) << "known=" << known;
    EXPECT_EQ(ctx.clock(), 10) << "known=" << known;
  }
}

TEST(Unified, SimCountsBothBranches) {
  // The phases split each branch's cost (the known-latency spanner
  // branch through EID's own phases), so together they are the
  // outcome's counters.
  const auto g = make_ring_of_cliques(3, 4, 3);
  for (const bool known : {false, true}) {
    MetricsRegistry metrics;
    CompositeContext ctx(nullptr, &metrics);
    UnifiedOptions opts;
    opts.latencies_known = known;
    Rng rng(1);
    const UnifiedOutcome out = run_unified(g, opts, rng, &ctx);
    std::size_t activations = 0;
    std::size_t payload_bits = 0;
    for (const auto& [name, phase] : metrics.phases()) {
      activations += phase.activations;
      payload_bits += phase.payload_bits;
    }
    const std::size_t push_pull =
        metrics.phases().at("unified/push_pull").activations;
    EXPECT_GT(push_pull, 0u);
    EXPECT_GT(activations, push_pull);
    EXPECT_EQ(out.sim.activations, activations) << "known=" << known;
    EXPECT_EQ(out.sim.payload_bits, payload_bits) << "known=" << known;
  }
}

TEST(Unified, DeterministicGivenSeed) {
  auto g = make_ring_of_cliques(3, 3, 2);
  Rng r1(13), r2(13);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome a = run_unified(g, opts, r1);
  const UnifiedOutcome b = run_unified(g, opts, r2);
  EXPECT_EQ(a.push_pull_rounds, b.push_pull_rounds);
  EXPECT_EQ(a.spanner_rounds, b.spanner_rounds);
}

}  // namespace
}  // namespace latgossip
