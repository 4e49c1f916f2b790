// Tests for push-pull gossip (Theorem 12's protocol).

#include <gtest/gtest.h>

#include <cmath>

#include "core/push_pull.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

SimResult run_broadcast(const WeightedGraph& g, NodeId source,
                        std::uint64_t seed, Round max_rounds = 100'000) {
  NetworkView view(g, false);
  PushPullBroadcast proto(view, source, Rng(seed));
  SimOptions opts;
  opts.max_rounds = max_rounds;
  return run_gossip(g, proto, opts);
}

TEST(PushPullBroadcast, CompletesOnClique) {
  const auto g = make_clique(32);
  const SimResult r = run_broadcast(g, 0, 1);
  EXPECT_TRUE(r.completed);
  // O(log n) on a clique; be generous.
  EXPECT_LE(r.rounds, 40);
}

TEST(PushPullBroadcast, CompletesOnPath) {
  const auto g = make_path(20);
  const SimResult r = run_broadcast(g, 0, 2);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 19);  // at least the hop distance
}

TEST(PushPullBroadcast, LatencyScalesRounds) {
  auto fast = make_clique(16);
  auto slow = make_clique(16);
  assign_uniform_latency(slow, 10);
  const SimResult rf = run_broadcast(fast, 0, 3);
  const SimResult rs = run_broadcast(slow, 0, 3);
  EXPECT_TRUE(rs.completed);
  // Nothing can arrive before one latency period...
  EXPECT_GE(rs.rounds, 10);
  // ...and the total grows with the latency, though non-blocking
  // pipelining (a node keeps initiating while exchanges are in flight)
  // compresses the naive 10x to a smaller factor.
  EXPECT_GE(rs.rounds, 3 * rf.rounds);
}

TEST(PushPullBroadcast, InformRoundsMonotoneFromSource) {
  const auto g = make_path(6);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(5));
  SimOptions opts;
  opts.max_rounds = 10'000;
  const auto r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(proto.inform_round(0), 0);
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_TRUE(proto.informed(v));
    // On a path, node v can't learn before v rounds have passed.
    EXPECT_GE(proto.inform_round(v), static_cast<Round>(v));
  }
}

TEST(PushPullBroadcast, BadSourceThrows) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(PushPullBroadcast(view, 5, Rng(1)), std::invalid_argument);
}

TEST(PushPullGossip, AllToAllOnSmallClique) {
  const auto g = make_clique(12);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                       own_id_rumors(12), Rng(7));
  SimOptions opts;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
  for (const Bitset& b : proto.rumors()) EXPECT_TRUE(b.all());
}

TEST(PushPullGossip, LocalBroadcastGoal) {
  Rng rng(9);
  auto g = make_erdos_renyi(20, 0.3, rng);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kLocalBroadcast, 0,
                       own_id_rumors(20), Rng(11));
  SimOptions opts;
  opts.max_rounds = 50'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  for (NodeId v = 0; v < 20; ++v)
    for (const HalfEdge& h : g.neighbors(v))
      EXPECT_TRUE(proto.rumors()[v].test(h.to));
}

TEST(PushPullGossip, SingleSourceGoalStopsEarly) {
  // Single-source completes as soon as everyone has rumor of node 0 —
  // strictly no later than all-to-all.
  const auto g = make_cycle(16);
  NetworkView view(g, false);
  PushPullGossip ss(view, GossipGoal::kSingleSource, 0,
                    own_id_rumors(16), Rng(13));
  PushPullGossip ata(view, GossipGoal::kAllToAll, 0,
                     own_id_rumors(16), Rng(13));
  SimOptions opts;
  opts.max_rounds = 50'000;
  const SimResult rs = run_gossip(g, ss, opts);
  const SimResult ra = run_gossip(g, ata, opts);
  ASSERT_TRUE(rs.completed);
  ASSERT_TRUE(ra.completed);
  EXPECT_LE(rs.rounds, ra.rounds);
}

TEST(PushPullGossip, CapturesShareSnapshotsUntilStateChanges) {
  const auto g = make_clique(8);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                       own_id_rumors(8), Rng(5));

  // Unchanged state: repeated captures hand out the same block.
  const PushPullGossip::Payload a = proto.capture_payload(3, 0);
  const PushPullGossip::Payload b = proto.capture_payload(3, 1);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.count(), 1u);

  // A delivery that adds rumors invalidates node 3's cached snapshot;
  // the old snapshot stays immutable.
  proto.deliver(3, 5, proto.capture_payload(5, 1), 0, 1, 2);
  const PushPullGossip::Payload c = proto.capture_payload(3, 2);
  EXPECT_NE(c.id(), a.id());
  EXPECT_EQ(c.count(), 2u);
  EXPECT_TRUE(c.bits().test(5));
  EXPECT_FALSE(a.bits().test(5));

  // A delivery that adds nothing new keeps the cached snapshot.
  proto.deliver(3, 5, proto.capture_payload(5, 2), 0, 2, 3);
  const PushPullGossip::Payload d = proto.capture_payload(3, 3);
  EXPECT_EQ(d.id(), c.id());

  // The oracle's naive path always deep-copies, same contents.
  const PushPullGossip::Payload e = proto.capture_payload_copy(3, 3);
  EXPECT_NE(e.id(), d.id());
  EXPECT_TRUE(e.bits() == d.bits());
}

TEST(PushPullGossip, ValidatesInput) {
  const auto g = make_path(4);
  NetworkView view(g, false);
  EXPECT_THROW(PushPullGossip(view, GossipGoal::kAllToAll, 0,
                              own_id_rumors(3), Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(PushPullGossip(view, GossipGoal::kSingleSource, 9,
                              own_id_rumors(4), Rng(1)),
               std::invalid_argument);
}

TEST(PushPullBroadcast, DeterministicGivenSeed) {
  const auto g = make_clique(24);
  const SimResult a = run_broadcast(g, 0, 42);
  const SimResult b = run_broadcast(g, 0, 42);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.activations, b.activations);
}

TEST(PushPullBroadcast, TwoLevelLatencyUsesFastSubgraph) {
  // Clique with a dense fast subgraph (p=0.5 fast at latency 1, slow at
  // 200): push-pull should finish far sooner than the slow latency.
  auto g = make_clique(48);
  Rng rng(15);
  assign_two_level_latency(g, 1, 200, 0.5, rng);
  const SimResult r = run_broadcast(g, 0, 17);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.rounds, 100);
}

}  // namespace
}  // namespace latgossip
