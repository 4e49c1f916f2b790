// Tests for the round-robin flooding baseline: PushPullGossip under
// ContactRule::kRoundRobin.

#include <gtest/gtest.h>

#include <optional>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

PushPullGossip flooding(const NetworkView& view, GossipGoal goal,
                        NodeId source = 0) {
  return PushPullGossip(view, goal, source, own_id_rumors(view.num_nodes()),
                        Rng{}, ContactRule::kRoundRobin);
}

SimResult run_flood(const WeightedGraph& g, GossipGoal goal,
                    Round max_rounds = 200'000) {
  NetworkView view(g, false);
  PushPullGossip proto = flooding(view, goal);
  SimOptions opts;
  opts.max_rounds = max_rounds;
  return run_gossip(g, proto, opts);
}

TEST(Flooding, AllToAllOnPath) {
  const auto g = make_path(10);
  const SimResult r = run_flood(g, GossipGoal::kAllToAll);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 9);
}

TEST(Flooding, AllToAllOnWeightedCycle) {
  auto g = make_cycle(8);
  assign_uniform_latency(g, 5);
  const SimResult r = run_flood(g, GossipGoal::kAllToAll);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 4 * 5);  // half the cycle at latency 5
}

TEST(Flooding, DeterministicSchedule) {
  const auto g = make_clique(10);
  const SimResult a = run_flood(g, GossipGoal::kAllToAll);
  const SimResult b = run_flood(g, GossipGoal::kAllToAll);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.activations, b.activations);
}

TEST(Flooding, LocalBroadcastFasterOrEqualThanAllToAll) {
  Rng rng(3);
  auto g = make_erdos_renyi(16, 0.3, rng);
  const SimResult local = run_flood(g, GossipGoal::kLocalBroadcast);
  const SimResult all = run_flood(g, GossipGoal::kAllToAll);
  ASSERT_TRUE(local.completed);
  ASSERT_TRUE(all.completed);
  EXPECT_LE(local.rounds, all.rounds);
}

TEST(Flooding, StarSingleSourceFromLeaf) {
  // On a star, bidirectional exchanges save flooding from the Ω(nD)
  // push-only trap: the hub relays to each leaf round-robin.
  const auto g = make_star(12);
  NetworkView view(g, false);
  PushPullGossip proto = flooding(view, GossipGoal::kSingleSource, 1);
  SimOptions opts;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 30);
}

TEST(Flooding, RumorSetsCompleteAtTermination) {
  const auto g = make_grid(4, 4);
  PushPullGossip proto = flooding(NetworkView(g, false), GossipGoal::kAllToAll);
  SimOptions opts;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(all_sets_full(proto.rumors()));
}

TEST(Flooding, ValidatesInput) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(PushPullGossip(view, GossipGoal::kAllToAll, 0,
                              own_id_rumors(2), Rng{},
                              ContactRule::kRoundRobin),
               std::invalid_argument);
}

TEST(Flooding, CyclesAdjacencyAndRestartsOnReset) {
  const auto g = make_star(4);  // hub 0 has degree 3
  NetworkView view(g, false);
  PushPullGossip proto = flooding(view, GossipGoal::kAllToAll);
  const auto expect_slot = [&](std::size_t slot, Round r) {
    const std::optional<HalfEdge> c = proto.select_contact(0, r);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->to, g.neighbors(0)[slot].to);
    EXPECT_EQ(c->edge, g.neighbors(0)[slot].edge);
  };
  for (const std::size_t slot : {0u, 1u, 2u, 0u})
    expect_slot(slot, 0);
  // A rejoining node restarts at its first neighbor, not at slot 1.
  proto.reset_node(0, 5);
  expect_slot(0, 5);
}

}  // namespace
}  // namespace latgossip
