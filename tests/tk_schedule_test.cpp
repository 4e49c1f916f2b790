// Tests for the T(k) schedule and Path Discovery (Appendix E).

#include <gtest/gtest.h>

#include "analysis/distance.h"
#include "core/rr_broadcast.h"
#include "core/tk_schedule.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"

namespace latgossip {
namespace {

TEST(TkPattern, BaseAndRecursion) {
  EXPECT_EQ(tk_pattern(1), (std::vector<Latency>{1}));
  EXPECT_EQ(tk_pattern(2), (std::vector<Latency>{1, 2, 1}));
  EXPECT_EQ(tk_pattern(4), (std::vector<Latency>{1, 2, 1, 4, 1, 2, 1}));
  EXPECT_EQ(tk_pattern(8),
            (std::vector<Latency>{1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2,
                                  1}));
}

TEST(TkPattern, LengthIs2kMinus1) {
  for (Latency k : {1, 2, 4, 8, 16, 32})
    EXPECT_EQ(tk_pattern(k).size(), static_cast<std::size_t>(2 * k - 1));
}

TEST(TkPattern, RejectsNonPowerOfTwo) {
  EXPECT_THROW(tk_pattern(3), std::invalid_argument);
  EXPECT_THROW(tk_pattern(0), std::invalid_argument);
}

TEST(TkPattern, NextPowerOfTwo) {
  EXPECT_EQ(next_power_of_two(1), 1);
  EXPECT_EQ(next_power_of_two(3), 4);
  EXPECT_EQ(next_power_of_two(4), 4);
  EXPECT_EQ(next_power_of_two(9), 16);
  EXPECT_THROW(next_power_of_two(0), std::invalid_argument);
}

TEST(TkSchedule, Lemma24DistanceKPairsExchange) {
  // After T(k), every pair at weighted distance <= k has exchanged.
  Rng gen(3);
  auto g = make_erdos_renyi(14, 0.3, gen);
  assign_random_uniform_latency(g, 1, 6, gen);
  const Latency k = 8;
  const TkOutcome out = run_tk_schedule(g, k, own_id_rumors(14));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = dijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] == kUnreachable || dist[v] > k) continue;
      EXPECT_TRUE(out.rumors[u].test(v)) << u << " missing " << v;
      EXPECT_TRUE(out.rumors[v].test(u)) << v << " missing " << u;
    }
  }
}

TEST(TkSchedule, SolvesAllToAllWithKAtLeastDiameter) {
  auto g = make_ring_of_cliques(4, 3, 4);
  const Latency d = weighted_diameter(g);
  const TkOutcome out = run_tk_schedule(g, d, own_id_rumors(g.num_nodes()));
  EXPECT_TRUE(out.sim.completed);
}

TEST(TkSchedule, HeavyMiddleEdgePath) {
  // Case 2a/2b of Lemma 24: a single edge of latency in (k/2, k].
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 7}, {2, 3, 1}});
  const TkOutcome out = run_tk_schedule(g, 16, own_id_rumors(4));
  EXPECT_TRUE(out.sim.completed);
}

TEST(TkSchedule, SmallKStoppedByHeavyBridge) {
  // Lemma 24 guarantees distance <= k pairs exchange; beyond that DTG
  // may relay transitively on fast edges, so the only hard barrier for
  // a small k is an edge slower than k.
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 9}, {2, 3, 1}});
  const TkOutcome out = run_tk_schedule(g, 4, own_id_rumors(4));
  EXPECT_FALSE(out.sim.completed);
  EXPECT_FALSE(out.rumors[0].test(2));  // behind the bridge
  EXPECT_TRUE(out.rumors[0].test(1));   // distance 1 pair exchanged
}

TEST(TkSchedule, RoundsGrowWithK) {
  const auto g = make_path(8);
  const TkOutcome small = run_tk_schedule(g, 2, own_id_rumors(8));
  const TkOutcome large = run_tk_schedule(g, 8, own_id_rumors(8));
  EXPECT_GT(large.sim.rounds, small.sim.rounds);
}

TEST(PathDiscovery, ConvergesOnUnitGraphs) {
  Rng gen(7);
  auto g = make_erdos_renyi(12, 0.35, gen);
  const DoublingOutcome out = run_path_discovery(g);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_TRUE(out.checks_unanimous);
}

TEST(PathDiscovery, ConvergesOnWeightedGraphs) {
  auto g = make_ring_of_cliques(3, 3, 5);
  const DoublingOutcome out = run_path_discovery(g);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  // Needs k >= D; D here is >= 5 (a bridge), so at least 3 doublings.
  EXPECT_GE(out.attempts, 3u);
}

TEST(PathDiscovery, HeavyBridgeForcesEstimateUpToLatency) {
  // Transitive DTG relays can finish unit graphs at tiny estimates, but
  // an edge of latency 12 is a hard barrier until k >= 12.
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 12}, {2, 3, 1}});
  const DoublingOutcome out = run_path_discovery(g);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_GE(out.final_estimate, 12);
}

TEST(TkSchedule, ValidatesInput) {
  const auto g = make_path(3);
  EXPECT_THROW(run_tk_schedule(g, 2, own_id_rumors(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
