// Tests for latency discovery (Section 4.2) and the unknown-latency EID
// branch of Theorem 20.

#include <gtest/gtest.h>

#include "analysis/distance.h"
#include "core/latency_discovery.h"
#include "core/rr_broadcast.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"

namespace latgossip {
namespace {

TEST(Discovery, FindsAllLatenciesWithinBudget) {
  auto g = make_clique(8);
  Rng rng(1);
  assign_random_uniform_latency(g, 1, 5, rng);
  const DiscoveryOutcome out = discover_latencies(g, 5);
  EXPECT_EQ(out.edges_discovered, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_TRUE(out.edge_latencies[e].has_value());
    EXPECT_EQ(*out.edge_latencies[e], g.latency(e));
  }
}

TEST(Discovery, SlowEdgesRemainUnknown) {
  const auto g = build_graph(3, {{0, 1, 2}, {1, 2, 50}});
  const DiscoveryOutcome out = discover_latencies(g, 10);
  EXPECT_EQ(out.edges_discovered, 1u);
  EXPECT_TRUE(out.edge_latencies[0].has_value());
  EXPECT_FALSE(out.edge_latencies[1].has_value());
}

TEST(Discovery, RoundsAreDeltaPlusBudget) {
  const auto g = make_star(10);  // Δ = 9
  const DiscoveryOutcome out = discover_latencies(g, 7);
  EXPECT_EQ(out.sim.rounds, 9 + 7);
}

TEST(Discovery, EveryNodeProbesEveryNeighborOnce) {
  const auto g = make_clique(6);
  const DiscoveryOutcome out = discover_latencies(g, 3);
  // Each of the 6 nodes initiates 5 probes.
  EXPECT_EQ(out.sim.activations, 30u);
}

TEST(Discovery, ValidatesBudget) {
  const auto g = make_path(3);
  EXPECT_THROW(discover_latencies(g, 0), std::invalid_argument);
}

TEST(UnknownLatencyEid, ConvergesOnUnitGraphs) {
  Rng gen(3);
  auto g = make_erdos_renyi(12, 0.35, gen);
  Rng rng(5);
  const DoublingOutcome out = run_unknown_latency_eid(g, 0, rng);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
}

TEST(UnknownLatencyEid, ConvergesOnWeightedGraphs) {
  auto g = make_ring_of_cliques(3, 4, 6);
  Rng rng(7);
  const DoublingOutcome out = run_unknown_latency_eid(g, 0, rng);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_GE(out.final_estimate, weighted_diameter(g) / 2);
}

TEST(UnknownLatencyEid, ChargesProbeRounds) {
  // Total rounds must exceed the final probe phase alone (Δ + k).
  const auto g = make_clique(8);
  Rng rng(9);
  const DoublingOutcome out = run_unknown_latency_eid(g, 0, rng);
  ASSERT_TRUE(out.success);
  EXPECT_GT(out.sim.rounds,
            static_cast<Round>(g.max_degree()) + out.final_estimate);
}

}  // namespace
}  // namespace latgossip
