// Tests for the model variations the paper discusses: blocking
// communication (Appendix E), bounded in-degree (Conclusion / Daum et
// al.), and message-size accounting (Conclusion).

#include <gtest/gtest.h>

#include "core/dtg.h"
#include "core/flooding.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

// ------------------------------------------------------------ blocking

TEST(Blocking, OneOutstandingInitiationEnforced) {
  // A latency-5 edge: in blocking mode a node can launch at most one
  // exchange per 5 rounds, so activations over 20 rounds are <= 4+1 per
  // node instead of 20.
  const auto g = build_graph(2, {{0, 1, 5}});

  struct Chatty {
    using Payload = int;
    std::optional<NodeId> select_contact(NodeId u, Round) {
      return u == 0 ? std::optional<NodeId>(1) : std::nullopt;
    }
    Payload capture_payload(NodeId, Round) const { return 0; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round) {}
    bool done(Round) const { return false; }
  } proto;

  SimOptions opts;
  opts.max_rounds = 20;
  opts.blocking = true;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_LE(r.activations, 5u);
  EXPECT_GE(r.activations, 3u);

  SimOptions nonblocking;
  nonblocking.max_rounds = 20;
  Chatty proto2;
  const SimResult r2 = run_gossip(g, proto2, nonblocking);
  EXPECT_EQ(r2.activations, 20u);
}

TEST(Blocking, DtgStillCorrectInBlockingModel) {
  // Appendix E: "This algorithm works even when nodes cannot initiate a
  // new exchange in every round ... communication is blocking." DTG
  // issues one exchange per superround of length ell, so blocking never
  // bites (the previous round trip finished within ell rounds).
  auto g = make_clique(12);
  Rng rng(3);
  assign_random_uniform_latency(g, 1, 3, rng);
  NetworkView view(g, true);
  DtgLocalBroadcast proto(view, 3, own_id_rumors(12));
  SimOptions opts;
  opts.blocking = true;
  opts.stop_when_idle = false;
  opts.max_rounds = 1'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(local_broadcast_complete(g, proto.rumors()));
}

TEST(Blocking, PushPullSlowsButCompletes) {
  auto g = make_clique(16);
  assign_uniform_latency(g, 8);
  Round free_rounds = 0, blocking_rounds = 0;
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(5));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    free_rounds = r.rounds;
  }
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(5));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.blocking = true;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    blocking_rounds = r.rounds;
  }
  // Losing the non-blocking pipeline can only cost time.
  EXPECT_GE(blocking_rounds, free_rounds);
}

// ------------------------------------------------------- in-degree cap

TEST(InDegreeCap, ExcessInitiationsRejected) {
  // A star in which every leaf contacts the hub each round; with cap 2,
  // most initiations bounce.
  const auto g = make_star(10);
  NetworkView view(g, false);
  RoundRobinFlooding proto(view, GossipGoal::kAllToAll, 0,
                           own_id_rumors(10));
  SimOptions opts;
  opts.max_incoming_per_round = 2;
  opts.max_rounds = 5'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_GT(r.exchanges_rejected, 0u);
  EXPECT_TRUE(r.completed);  // still finishes, just needs more rounds
}

TEST(InDegreeCap, CapSlowsStarDissemination) {
  const auto g = make_star(16);
  Round uncapped = 0, capped = 0;
  {
    NetworkView view(g, false);
    RoundRobinFlooding proto(view, GossipGoal::kAllToAll, 0,
                             own_id_rumors(16));
    SimOptions opts;
    opts.max_rounds = 100'000;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    uncapped = r.rounds;
  }
  {
    NetworkView view(g, false);
    RoundRobinFlooding proto(view, GossipGoal::kAllToAll, 0,
                             own_id_rumors(16));
    SimOptions opts;
    opts.max_rounds = 100'000;
    opts.max_incoming_per_round = 1;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    capped = r.rounds;
  }
  EXPECT_GT(capped, uncapped);
}

TEST(InDegreeCap, UnlimitedByDefault) {
  const auto g = make_star(8);
  NetworkView view(g, false);
  RoundRobinFlooding proto(view, GossipGoal::kAllToAll, 0, own_id_rumors(8));
  SimOptions opts;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_EQ(r.exchanges_rejected, 0u);
}

TEST(Blocking, ResponseLossStillUnblocks) {
  // A blocked initiator whose round trip is lost must regain the right
  // to initiate (the response leg completes the trip even when its
  // content is dropped) — otherwise lossy links deadlock the blocking
  // model.
  const auto g = build_graph(2, {{0, 1, 2}});

  struct Chatty {
    using Payload = int;
    std::size_t initiations = 0;
    std::optional<NodeId> select_contact(NodeId u, Round) {
      if (u != 0) return std::nullopt;
      ++initiations;
      return 1;
    }
    Payload capture_payload(NodeId, Round) const { return 0; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round) {}
    bool done(Round) const { return false; }
  } proto;

  DynamicSpec lose_all;
  lose_all.drop_prob = 1.0;  // lose every payload
  DynamicPlan plan(2, g.num_edges(), lose_all);
  SimOptions opts;
  opts.blocking = true;
  opts.max_rounds = 30;
  opts.dynamics = &plan;
  run_gossip(g, proto, opts);
  // One initiation per 2-round trip over 30 rounds: ~15, and certainly
  // more than one (the deadlock symptom).
  EXPECT_GE(proto.initiations, 10u);
}

TEST(Blocking, CrashedPeerDoesNotWedgeInitiator) {
  // Node 1 crashes immediately; node 0's round trips are dropped but
  // still unblock; the run must keep making initiations.
  const auto g = build_graph(2, {{0, 1, 3}});
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  DynamicSpec crash;
  crash.crash_at = {{1, 0}};
  DynamicPlan plan(2, g.num_edges(), crash);
  SimOptions opts;
  opts.blocking = true;
  opts.max_rounds = 40;
  opts.dynamics = &plan;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_GE(r.activations, 8u);
}

// ------------------------------------------------- message accounting

TEST(PayloadBits, SingleRumorPushPullIsSmallMessage) {
  const auto g = make_clique(12);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(7));
  SimOptions opts;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  // Exactly one bit per payload, two payloads per activation.
  EXPECT_EQ(r.payload_bits, 2 * r.activations);
}

TEST(PayloadBits, RumorSetProtocolsPayPerRumor) {
  const auto g = make_clique(12);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                       own_id_rumors(12), Rng(9));
  SimOptions opts;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  // Every payload carries at least one 32-bit rumor id.
  EXPECT_GE(r.payload_bits, 32 * 2 * r.activations);
}

TEST(PayloadBits, DefaultsToOneBitWithoutHook) {
  const auto g = build_graph(2, {{0, 1, 1}});
  struct NoHook {
    using Payload = int;
    std::optional<NodeId> select_contact(NodeId u, Round r) {
      return (u == 0 && r == 0) ? std::optional<NodeId>(1) : std::nullopt;
    }
    Payload capture_payload(NodeId, Round) const { return 1234; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round) {}
    bool done(Round) const { return false; }
  } proto;
  SimOptions opts;
  opts.max_rounds = 10;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_EQ(r.payload_bits, 2u);
}

}  // namespace
}  // namespace latgossip
