// Tests for PushPullBroadcast's push-only baseline (footnote 2: without
// pull, a star needs Ω(nD) time; bidirectional push-pull avoids it) and
// its pull-only mirror.

#include <gtest/gtest.h>

#include "core/push_pull.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace latgossip {
namespace {

SimResult run_push_only(const WeightedGraph& g, NodeId source,
                        std::uint64_t seed, Round max_rounds = 500'000) {
  NetworkView view(g, false);
  PushPullBroadcast proto(view, source, Rng(seed), LegRule::kPushOnly);
  SimOptions opts;
  opts.max_rounds = max_rounds;
  return run_gossip(g, proto, opts);
}

TEST(PushOnly, CompletesOnClique) {
  const auto g = make_clique(16);
  const SimResult r = run_push_only(g, 0, 1);
  EXPECT_TRUE(r.completed);
}

TEST(PushOnly, CompletesOnPath) {
  const auto g = make_path(10);
  const SimResult r = run_push_only(g, 0, 2);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 9);
}

TEST(PushOnly, UninformedNodesStaySilent) {
  // Only informed nodes push: total activations are bounded by the sum
  // over nodes of (rounds - inform_round), far below n*rounds early on.
  const auto g = make_path(6);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3), LegRule::kPushOnly);
  SimOptions opts;
  opts.max_rounds = 3;
  const SimResult r = run_gossip(g, proto, opts);
  // In 3 rounds at most nodes 0,1,2 can be informed; activations <= 6.
  EXPECT_LE(r.activations, 6u);
}

TEST(PushOnly, ResponseLegDiscarded) {
  // Two nodes, node 1 holds the rumor, node 0 initiates every round:
  // the response (pull) leg must be ignored, so 0 stays uninformed
  // until 1 pushes to it — but 1 is the only informed node, and *it*
  // pushes, so 0 is informed by 1's own initiation only.
  const auto g = build_graph(2, {{0, 1, 1}});
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 1, Rng(5), LegRule::kPushOnly);
  SimOptions opts;
  opts.max_rounds = 10;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);  // 1 pushes to its only neighbor
  EXPECT_TRUE(proto.informed(0));
}

TEST(PushOnly, StarFromHubIsCouponCollector) {
  // From the hub, push-only must hit every leaf by random pushes:
  // Θ(n log n) rounds — much more than push-pull's O(1)-ish (leaves
  // pull the hub immediately).
  const std::size_t n = 32;
  const auto g = make_star(n);
  Accumulator push_only_rounds, push_pull_rounds;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const SimResult po = run_push_only(g, 0, seed);
    ASSERT_TRUE(po.completed);
    push_only_rounds.add(static_cast<double>(po.rounds));

    NetworkView view(g, false);
    PushPullBroadcast pp(view, 0, Rng(seed));
    SimOptions opts;
    opts.max_rounds = 500'000;
    const SimResult r = run_gossip(g, pp, opts);
    ASSERT_TRUE(r.completed);
    push_pull_rounds.add(static_cast<double>(r.rounds));
  }
  EXPECT_GT(push_only_rounds.mean(), 5.0 * push_pull_rounds.mean());
}

TEST(PushOnly, WeightedStarShowsNDBehavior) {
  // Footnote 2's example: star with edge latency D. Push-only from the
  // hub pays ~(n ln n)/1 initiations each taking D to land; the last
  // leaf is informed around D + n ln n rounds; compare against
  // push-pull's ~D.
  const std::size_t n = 24;
  const Latency lat = 20;
  auto g = make_star(n);
  assign_uniform_latency(g, lat);
  const SimResult po = run_push_only(g, 0, 7);
  ASSERT_TRUE(po.completed);
  NetworkView view(g, false);
  PushPullBroadcast pp(view, 0, Rng(7));
  SimOptions opts;
  opts.max_rounds = 500'000;
  const SimResult ppr = run_gossip(g, pp, opts);
  ASSERT_TRUE(ppr.completed);
  EXPECT_LE(ppr.rounds, static_cast<Round>(lat) + 2);
  EXPECT_GT(po.rounds, 2 * ppr.rounds);
}

TEST(PushOnly, ValidatesSource) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(PushPullBroadcast(view, 9, Rng(1), LegRule::kPushOnly),
               std::invalid_argument);
}

TEST(PushOnly, PipelinedResponsesAllDiscarded) {
  // Latency-4 edge, node 1 informed, node 0 initiates every round while
  // responses are in flight: every response leg must be discarded,
  // however many overlap — but node 1's own pushes inform node 0.
  const auto g = build_graph(2, {{0, 1, 4}});
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 1, Rng(11), LegRule::kPushOnly);
  SimOptions opts;
  opts.max_rounds = 50;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

SimResult run_pull_only(const WeightedGraph& g, NodeId source,
                        std::uint64_t seed, Round max_rounds = 500'000) {
  NetworkView view(g, false);
  PushPullBroadcast proto(view, source, Rng(seed),
                          LegRule::kResponseOnly);
  SimOptions opts;
  opts.max_rounds = max_rounds;
  return run_gossip(g, proto, opts);
}

TEST(PullOnly, CompletesOnClique) {
  const auto g = make_clique(16);
  const SimResult r = run_pull_only(g, 0, 1);
  EXPECT_TRUE(r.completed);
}

TEST(PullOnly, CompletesOnPath) {
  const auto g = make_path(8);
  const SimResult r = run_pull_only(g, 0, 2);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.rounds, 7);
}

TEST(PullOnly, StarFromLeafIsFast) {
  // Every leaf pulls the hub: source leaf -> hub (pulled by hub? no —
  // the hub itself pulls a random leaf, then all leaves pull the hub).
  const auto g = make_star(32);
  const SimResult r = run_pull_only(g, 1, 3);
  ASSERT_TRUE(r.completed);
  EXPECT_LE(r.rounds, 200);  // hub finds the informed leaf, leaves pull
}

TEST(PullOnly, UnsolicitedPushesIgnored) {
  // Node 1 informed but silent (pull-only informed nodes don't
  // initiate); node 0 must pull it — deliveries from 1's side never
  // happen spontaneously.
  const auto g = build_graph(2, {{0, 1, 3}});
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 1, Rng(5), LegRule::kResponseOnly);
  SimOptions opts;
  opts.max_rounds = 100;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(proto.informed(0));
}

/// Pull-only from source 0 on nodes {0, 1, w} joined by edges {0,1}
/// (latency 5) and {1,w} (latency 2); ids between 2 and w are
/// isolated. Returns the activations and the informed flags of 0, 1
/// and w.
std::vector<std::size_t> pull_three_nodes(NodeId w, std::uint64_t seed) {
  GraphBuilder b(w + 1);
  b.add_edge(0, 1, 5);
  b.add_edge(1, w, 2);
  const WeightedGraph g = b.build();
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(seed), LegRule::kResponseOnly);
  SimOptions opts;
  opts.max_rounds = 200;
  const SimResult r = run_gossip(g, proto, opts);
  for (NodeId v = 2; v < w; ++v) EXPECT_FALSE(proto.informed(v)) << v;
  return {r.activations, proto.informed(0), proto.informed(1),
          proto.informed(w)};
}

TEST(PullOnly, RelabelingToLargeNodeIdsKeepsTheRun) {
  // Which leg a delivery is must not depend on how large the node ids
  // are: a third node labeled 2^20 (ids 2 .. 2^20-1 isolated) runs
  // exactly as when it is labeled 2.
  const NodeId big = NodeId{1} << 20;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    EXPECT_EQ(pull_three_nodes(big, seed), pull_three_nodes(2, seed))
        << "seed " << seed;
}

TEST(PullOnly, ValidatesSource) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(PushPullBroadcast(view, 9, Rng(1), LegRule::kResponseOnly),
               std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
