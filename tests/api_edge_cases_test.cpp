// Edge-case coverage across API seams: degenerate sizes, option
// validation, and metric accounting details not covered elsewhere.

#include <gtest/gtest.h>

#include "latgossip.h"

namespace latgossip {
namespace {

TEST(Metrics, AccumulateSumsAndTracksPeak) {
  SimResult a, b;
  a.rounds = 10;
  a.activations = 5;
  a.messages_delivered = 8;
  a.messages_dropped = 1;
  a.payload_bits = 100;
  a.max_inflight = 4;
  b.rounds = 7;
  b.activations = 2;
  b.messages_delivered = 4;
  b.exchanges_rejected = 3;
  b.payload_bits = 50;
  b.max_inflight = 9;
  b.completed = true;
  a.accumulate(b);
  EXPECT_EQ(a.rounds, 17);
  EXPECT_EQ(a.activations, 7u);
  EXPECT_EQ(a.messages_delivered, 12u);
  EXPECT_EQ(a.messages_dropped, 1u);
  EXPECT_EQ(a.exchanges_rejected, 3u);
  EXPECT_EQ(a.payload_bits, 150u);
  EXPECT_EQ(a.max_inflight, 9u);
  EXPECT_TRUE(a.completed);  // takes the latest phase's flag
}

TEST(Engine, TwoNodeGraphSmallestNontrivialCase) {
  const auto g = build_graph(2, {{0, 1, 1}});
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(1));
  const SimResult r = run_gossip(g, proto, {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 1);  // one unit-latency exchange
}

TEST(Engine, SingleNodeGraphIsTriviallyDone) {
  WeightedGraph g(1);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(1));
  const SimResult r = run_gossip(g, proto, {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 0);
}

TEST(TerminationCheck, SingleNodeNeverFails) {
  const WeightedGraph g(1);
  std::vector<Bitset> rumors(1, Bitset(1));
  rumors[0].set(0);
  auto broadcast = [&]() {
    return std::make_pair(std::vector<Bitset>{rumors[0]}, SimResult{});
  };
  const CheckOutcome out = run_termination_check(g, rumors, broadcast);
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.unanimous);
}

TEST(TerminationCheck, ValidatesRumorSize) {
  const auto g = make_path(3);
  auto broadcast = [&]() {
    return std::make_pair(own_id_rumors(3), SimResult{});
  };
  EXPECT_THROW(run_termination_check(g, own_id_rumors(2), broadcast),
               std::invalid_argument);
}

TEST(Eid, SingleNodeAndTwoNodeGraphs) {
  Rng rng(3);
  {
    const WeightedGraph g(1);
    const DoublingOutcome out = run_general_eid(g, 0, rng);
    EXPECT_TRUE(out.success);
  }
  {
    const auto g = build_graph(2, {{0, 1, 4}});
    const DoublingOutcome out = run_general_eid(g, 0, rng);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(all_sets_full(out.rumors));
    EXPECT_GE(out.final_estimate, 4);  // must grow to the edge latency
  }
}

TEST(Unified, TwoNodeGraph) {
  const auto g = build_graph(2, {{0, 1, 3}});
  Rng rng(5);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  EXPECT_TRUE(out.sim.completed);
  EXPECT_GE(out.sim.rounds, 3);
}

TEST(Spanner, SingleEdgeGraph) {
  const auto g = build_graph(2, {{0, 1, 7}});
  Rng rng(7);
  const auto spanner = build_baswana_sen_spanner(g, {2, 0}, rng);
  const auto undirected = spanner.to_undirected();
  EXPECT_TRUE(undirected.is_connected());
  EXPECT_EQ(undirected.num_edges(), 1u);
}

TEST(Gadget, MinimumSizeM2) {
  Rng rng(9);
  const auto gg = make_guessing_gadget(2, make_singleton_target(2, rng), 1,
                                       10, true);
  EXPECT_EQ(gg.graph.num_nodes(), 4u);
  EXPECT_TRUE(gg.graph.is_connected());
}

TEST(Discovery, BudgetOneStillLearnsUnitEdges) {
  const auto g = make_clique(5);  // all unit latencies
  const DiscoveryOutcome out = discover_latencies(g, 1);
  EXPECT_EQ(out.edges_discovered, g.num_edges());
}

TEST(TkSchedule, SingleNodeGraph) {
  const WeightedGraph g(1);
  const TkOutcome out = run_tk_schedule(g, 1, own_id_rumors(1));
  EXPECT_TRUE(out.sim.completed);
}

TEST(Game, SingleElementUniverse) {
  GuessingGame game(1, {{0, 0}});
  const auto hits = game.submit_round({{0, 0}});
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_TRUE(game.solved());
}

TEST(LayeredRing, SmallestValidRing) {
  Rng rng(11);
  const auto ring = make_layered_ring(3, 2, 2, rng);
  EXPECT_EQ(ring.graph.num_nodes(), 6u);
  EXPECT_TRUE(ring.graph.is_connected());
  // (3s-1)-regularity holds even at the minimum size.
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(ring.graph.degree(v), 5u);
}

TEST(KvStore, EmptyStoreDigestsEqual) {
  KvStore a(0), b(1);
  EXPECT_EQ(a.digest(), b.digest());  // digest covers content, not owner
  EXPECT_EQ(a.get("missing"), nullptr);
  EXPECT_TRUE(a.snapshot().empty());
}

TEST(AntiEntropy, AlreadyConvergedFinishesImmediately) {
  const auto g = make_clique(4);
  std::vector<KvStore> stores;
  for (NodeId v = 0; v < 4; ++v) stores.emplace_back(v);  // all empty
  NetworkView view(g, false);
  AntiEntropy proto(view, std::move(stores), Rng(13));
  const SimResult r = run_gossip(g, proto, {});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 0);
}

}  // namespace
}  // namespace latgossip
