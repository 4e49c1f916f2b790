// Tests for the simulation engine: latency semantics, payload snapshot
// rule, non-blocking pipelining, termination and observers.

#include <gtest/gtest.h>

#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/oracle.h"
#include "sim/workspace.h"
#include "util/bitset.h"
#include "util/snapshot.h"

namespace latgossip {
namespace {

/// The adjacency slot of u that leads to v.
HalfEdge slot(const WeightedGraph& g, NodeId u, NodeId v) {
  return HalfEdge{v, g.find_edge(u, v).value()};
}

/// Scripted test protocol: per-node list of (round, contact); payload is
/// the sender's id and the initiation round so tests can check snapshot
/// timing. Records every delivery and checks its leg against the script.
class ScriptedProtocol {
 public:
  using Payload = std::pair<NodeId, Round>;

  struct DeliveryRecord {
    NodeId to;
    NodeId from;
    Round start;
    Round now;
    Leg leg;
  };

  explicit ScriptedProtocol(std::size_t n) : script_(n) {}

  void schedule(NodeId u, Round r, HalfEdge contact) {
    script_[u].emplace_back(r, contact);
  }

  std::optional<HalfEdge> select_contact(NodeId u, Round r) {
    for (const auto& [round, contact] : script_[u])
      if (round == r) return contact;
    return std::nullopt;
  }

  Payload capture_payload(NodeId u, Round r) const { return {u, r}; }

  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId, Round start,
               Round now, Leg leg) {
    EXPECT_EQ(payload.first, peer);
    EXPECT_EQ(payload.second, start);
    // A push lands at the responder of peer's call, a response at the
    // initiator of u's own call.
    if (leg == Leg::kPush)
      EXPECT_TRUE(calls(peer, start, u)) << peer << " -> " << u;
    else
      EXPECT_TRUE(calls(u, start, peer)) << u << " -> " << peer;
    deliveries.push_back(DeliveryRecord{u, peer, start, now, leg});
  }

  bool done(Round) const { return false; }

  std::vector<DeliveryRecord> deliveries;

 private:
  /// Does the script have u call v in round r?
  bool calls(NodeId u, Round r, NodeId v) const {
    for (const auto& [round, contact] : script_[u])
      if (round == r && contact.to == v) return true;
    return false;
  }

  std::vector<std::vector<std::pair<Round, HalfEdge>>> script_;
};

TEST(Engine, ExchangeTakesEdgeLatencyAndIsBidirectional) {
  const auto g = build_graph(2, {{0, 1, 3}});
  ScriptedProtocol proto(2);
  proto.schedule(0, 0, slot(g, 0, 1));
  SimOptions opts;
  const SimResult result = run_gossip(g, proto, opts);
  ASSERT_EQ(proto.deliveries.size(), 2u);
  // Both endpoints receive at round 0 + latency 3.
  for (const auto& d : proto.deliveries) {
    EXPECT_EQ(d.start, 0);
    EXPECT_EQ(d.now, 3);
  }
  EXPECT_EQ(proto.deliveries[0].to, 1u);  // responder gets initiator's payload
  EXPECT_EQ(proto.deliveries[0].leg, Leg::kPush);
  EXPECT_EQ(proto.deliveries[1].to, 0u);
  EXPECT_EQ(proto.deliveries[1].leg, Leg::kResponse);
  EXPECT_EQ(result.activations, 1u);
  EXPECT_EQ(result.messages_delivered, 2u);
}

TEST(Engine, NonBlockingPipelining) {
  // Node 0 initiates on a latency-5 edge in rounds 0,1,2; all three
  // exchanges are in flight simultaneously.
  const auto g = build_graph(2, {{0, 1, 5}});
  ScriptedProtocol proto(2);
  for (Round r = 0; r < 3; ++r) proto.schedule(0, r, slot(g, 0, 1));
  const SimResult result = run_gossip(g, proto, {});
  EXPECT_EQ(result.activations, 3u);
  EXPECT_EQ(result.messages_delivered, 6u);
  EXPECT_EQ(result.max_inflight, 6u);
  // Deliveries at rounds 5, 6, 7.
  std::vector<Round> arrival;
  for (const auto& d : proto.deliveries)
    if (d.to == 1) arrival.push_back(d.now);
  EXPECT_EQ(arrival, (std::vector<Round>{5, 6, 7}));
}

TEST(Engine, StopsWhenIdle) {
  const auto g = build_graph(2, {{0, 1, 4}});
  ScriptedProtocol proto(2);
  proto.schedule(0, 0, slot(g, 0, 1));
  SimOptions opts;
  opts.max_rounds = 1000;
  const SimResult result = run_gossip(g, proto, opts);
  // Delivery at round 4; engine notices idleness right after.
  EXPECT_LE(result.rounds, 6);
  EXPECT_GE(result.rounds, 4);
}

TEST(Engine, DeliveriesNameTheirLeg) {
  // Both drivers label every leg from their own records, and
  // ScriptedProtocol checks each label against the script. Nodes 0 and
  // 1 call each other in round 0, so each is the responder of one
  // exchange and the initiator of the other. Node 0 calls again every
  // round, which the blocking model holds back until its response
  // lands: calls in rounds 0 and 3 instead of 0 to 5.
  const auto g = build_graph(3, {{0, 1, 3}, {1, 2, 1}});
  for (const bool blocking : {false, true}) {
    for (const bool on_oracle : {false, true}) {
      ScriptedProtocol proto(3);
      for (Round r = 0; r < 6; ++r) proto.schedule(0, r, slot(g, 0, 1));
      proto.schedule(1, 0, slot(g, 1, 0));
      proto.schedule(2, 2, slot(g, 2, 1));
      SimOptions opts;
      opts.blocking = blocking;
      const SimResult result = on_oracle ? run_gossip_oracle(g, proto, opts)
                                         : run_gossip(g, proto, opts);
      const std::size_t exchanges = blocking ? 4 : 8;
      EXPECT_EQ(result.activations, exchanges);
      std::size_t pushes = 0;
      for (const auto& d : proto.deliveries)
        if (d.leg == Leg::kPush) ++pushes;
      EXPECT_EQ(pushes, exchanges);
      EXPECT_EQ(proto.deliveries.size(), 2 * exchanges);
    }
  }

  // The oracle's leg-drop bug suppresses every response: only the
  // pushes arrive.
  ScriptedProtocol proto(3);
  proto.schedule(0, 0, slot(g, 0, 1));
  proto.schedule(1, 1, slot(g, 1, 0));
  oracle_detail::ModelBug bug;
  bug.drop_initiator_leg = true;
  run_gossip_oracle(g, proto, {}, bug);
  ASSERT_EQ(proto.deliveries.size(), 2u);
  for (const auto& d : proto.deliveries) EXPECT_EQ(d.leg, Leg::kPush);
  EXPECT_EQ(proto.deliveries[0].to, 1u);
  EXPECT_EQ(proto.deliveries[1].to, 0u);
}

TEST(Engine, MaxRoundsTimeout) {
  const auto g = build_graph(2, {{0, 1, 1}});

  struct Chatty {
    using Payload = int;
    std::optional<HalfEdge> select_contact(NodeId u, Round) {
      if (u != 0) return std::nullopt;
      return HalfEdge{1, 0};  // edge 0 joins 0 and 1
    }
    Payload capture_payload(NodeId, Round) const { return 0; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round, Leg) {}
    bool done(Round) const { return false; }
  } proto;

  SimOptions opts;
  opts.max_rounds = 37;
  const SimResult result = run_gossip(g, proto, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 37);
}

TEST(Engine, DoneCheckedAfterDeliveries) {
  const auto g = build_graph(2, {{0, 1, 2}});

  // Protocol completes once node 1 received anything.
  struct OneShot {
    using Payload = int;
    bool received = false;
    std::optional<HalfEdge> select_contact(NodeId u, Round r) {
      if (u == 0 && r == 0) return HalfEdge{1, 0};
      return std::nullopt;
    }
    Payload capture_payload(NodeId, Round) const { return 7; }
    void deliver(NodeId u, NodeId, Payload, EdgeId, Round, Round, Leg) {
      if (u == 1) received = true;
    }
    bool done(Round) const { return received; }
  } proto;

  const SimResult result = run_gossip(g, proto, {});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.rounds, 2);  // delivery lands at round 2
}

TEST(Engine, ActivationObserverSeesEveryInitiation) {
  const auto g = build_graph(3, {{0, 1, 1}, {1, 2, 2}});
  ScriptedProtocol proto(3);
  proto.schedule(0, 0, slot(g, 0, 1));
  proto.schedule(1, 1, slot(g, 1, 2));
  EventRecorder rec;
  SimOptions opts;
  opts.recorder = &rec;
  run_gossip(g, proto, opts);
  std::vector<std::tuple<NodeId, NodeId, Round>> seen;
  for (const Event& e : rec.events())
    if (e.kind() == EventKind::kActivation)
      seen.emplace_back(e.a(), e.b(), e.round());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_tuple(NodeId{0}, NodeId{1}, Round{0}));
  EXPECT_EQ(seen[1], std::make_tuple(NodeId{1}, NodeId{2}, Round{1}));
}

TEST(Engine, EmptyGraphCompletesImmediately) {
  WeightedGraph g(0);
  ScriptedProtocol proto(0);
  const SimResult result = run_gossip(g, proto, {});
  EXPECT_EQ(result.rounds, 0);
}

TEST(NetworkView, LatencyAccessGuarded) {
  GraphBuilder b(2);
  const EdgeId e = b.add_edge(0, 1, 6);
  const WeightedGraph g = b.build();
  const NetworkView unknown(g, false);
  EXPECT_THROW((void)unknown.latency(e), std::logic_error);
  const NetworkView known(g, true);
  EXPECT_EQ(known.latency(e), 6);
  EXPECT_EQ(known.num_nodes(), 2u);
  EXPECT_EQ(known.degree(0), 1u);
}

TEST(Engine, MismatchedContactEdgeThrows) {
  GraphBuilder b(3);
  const EdgeId near = b.add_edge(0, 1, 1);
  const EdgeId far = b.add_edge(1, 2, 1);
  const WeightedGraph g = b.build();
  // The engine's edge-record check and the oracle's adjacency scan must
  // each catch a protocol lying about its contact: an edge that does
  // not join u and the peer, a peer that is not u's neighbor, and an
  // edge id out of range.
  const auto engine_run = [&](HalfEdge contact) {
    ScriptedProtocol proto(3);
    proto.schedule(0, 0, contact);
    run_gossip(g, proto, {});
  };
  const auto oracle_run = [&](HalfEdge contact) {
    ScriptedProtocol proto(3);
    proto.schedule(0, 0, contact);
    run_gossip_oracle(g, proto, {});
  };
  for (const HalfEdge lie : {HalfEdge{1, far}, HalfEdge{2, near}}) {
    EXPECT_THROW(engine_run(lie), std::logic_error);
    EXPECT_THROW(oracle_run(lie), std::logic_error);
  }
  EXPECT_THROW(engine_run(HalfEdge{1, 99}), std::out_of_range);
  EXPECT_THROW(oracle_run(HalfEdge{1, 99}), std::out_of_range);
}

TEST(Engine, HookedAndFastPathsProduceIdenticalResults) {
  // A recorder plus an inert scenario force the hooked instantiation;
  // with the same protocol seed it must match the NoHooks fast path
  // exactly.
  Rng grng(11);
  auto g = make_erdos_renyi(96, 0.1, grng);
  assign_random_uniform_latency(g, 1, 7, grng);

  NetworkView view(g, false);
  PushPullBroadcast fast(view, 0, Rng(5));
  SimOptions plain;
  const SimResult fast_result = run_gossip(g, fast, plain);

  PushPullBroadcast hooked(view, 0, Rng(5));
  EventRecorder rec;
  DynamicPlan inert(g.num_nodes(), g.num_edges(), DynamicSpec{});
  SimOptions with_hook;
  with_hook.recorder = &rec;
  with_hook.dynamics = &inert;
  const SimResult hooked_result = run_gossip(g, hooked, with_hook);

  EXPECT_EQ(fast_result, hooked_result);
  EXPECT_EQ(rec.activations(), hooked_result.activations);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    EXPECT_EQ(fast.inform_round(u), hooked.inform_round(u));
}

TEST(Engine, JitterBeyondLatencyHorizonGrowsCalendarQueue) {
  // Nominal max latency is 2, so the calendar ring starts at 3 slots;
  // a jitter spread of 1000 stretches the exchanges far past it, which
  // must trigger the re-bucketing growth path and still deliver at the
  // right rounds.
  const auto g = build_graph(2, {{0, 1, 2}});
  ScriptedProtocol proto(2);
  proto.schedule(0, 0, slot(g, 0, 1));
  proto.schedule(0, 1, slot(g, 0, 1));
  DynamicSpec spec;
  spec.jitter_spread = 1000;
  spec.jitter_seed = 3;
  DynamicPlan plan(2, g.num_edges(), spec);
  SimOptions opts;
  opts.max_rounds = 5000;
  opts.dynamics = &plan;
  const SimResult result = run_gossip(g, proto, opts);

  // The jitter contract: one draw per exchange, in initiation order.
  Rng jitter(spec.jitter_seed);
  const Latency first =
      std::max<Latency>(1, 2 + jitter.uniform_int(-1000, 1000));
  const Latency second =
      std::max<Latency>(1, 2 + jitter.uniform_int(-1000, 1000));
  ASSERT_GT(std::max(first, second), 3);  // beyond the initial ring
  std::vector<Round> expected{first, first, 1 + second, 1 + second};
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(proto.deliveries.size(), 4u);
  std::vector<Round> arrivals;
  for (const auto& d : proto.deliveries) arrivals.push_back(d.now);
  std::sort(arrivals.begin(), arrivals.end());
  EXPECT_EQ(arrivals, expected);
  EXPECT_EQ(result.messages_delivered, 4u);
}

TEST(Engine, RingGrowthAfterWrapKeepsDueRounds) {
  // Nominal latency 2 gives a 3-slot ring. Jitter keeps round 3's
  // exchange inside it, and round 4's outgrows it while the first is
  // still pending: the grown ring must put round 4 at slot 4 % 6, not
  // 4 % 3, for both exchanges to land on time.
  const auto g = build_graph(2, {{0, 1, 2}});
  ScriptedProtocol proto(2);
  proto.schedule(0, 3, slot(g, 0, 1));
  proto.schedule(0, 4, slot(g, 0, 1));
  DynamicSpec spec;
  spec.jitter_spread = 4;
  spec.jitter_seed = 17;
  DynamicPlan plan(2, g.num_edges(), spec);
  SimOptions opts;
  opts.max_rounds = 20;
  opts.stop_when_idle = false;
  opts.dynamics = &plan;
  run_gossip(g, proto, opts);

  Rng jitter(spec.jitter_seed);
  const Latency first = std::max<Latency>(1, 2 + jitter.uniform_int(-4, 4));
  const Latency second = std::max<Latency>(1, 2 + jitter.uniform_int(-4, 4));
  ASSERT_TRUE(first == 2 || first == 3);  // pending at round 4's growth
  ASSERT_GT(second, 3);                   // beyond the 3-slot ring
  std::vector<Round> arrivals;
  for (const auto& d : proto.deliveries) arrivals.push_back(d.now);
  EXPECT_EQ(arrivals, (std::vector<Round>{3 + first, 3 + first, 4 + second,
                                          4 + second}));
}

TEST(Engine, ReusedRingMatchesFreshRunsAndOracle) {
  // One workspace keeps its calendar ring from run to run: horizons 13,
  // 4, 13 and 6, so later runs wrap a ring larger than their own
  // horizon, and jitter grows it past 13 mid-run. Every run must match
  // a fresh workspace's and the oracle's, event for event; link loss
  // makes the order of the two legs visible in the drop events.
  TrialWorkspace ws;
  const auto ring_size = [&ws] {
    return ws.find_slot<detail::EngineState<bool>>()->slots.size();
  };
  Rng grng(17);
  bool first_run = true;
  for (const Latency lmax : {Latency{12}, Latency{3}, Latency{12}, Latency{5}}) {
    auto g = make_erdos_renyi(40, 0.15, grng);
    assign_two_level_latency(g, 1, lmax, 0.3, grng);
    ASSERT_EQ(g.max_latency(), lmax);
    for (const bool jitter : {false, true}) {
      DynamicSpec spec;
      if (jitter) {
        spec.jitter_spread = 20;
        spec.jitter_seed = 7;
        spec.drop_prob = 0.2;
        spec.fault_seed = 5;
      }
      const auto run = [&](TrialWorkspace* workspace, bool on_oracle) {
        NetworkView view(g, false);
        PushPullBroadcast proto(view, 0, Rng(static_cast<std::uint64_t>(lmax)));
        EventRecorder rec;
        DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
        SimOptions opts;
        opts.recorder = &rec;
        opts.workspace = workspace;
        if (jitter) opts.dynamics = &plan;
        SimResult result = on_oracle ? run_gossip_oracle(g, proto, opts)
                                     : run_gossip(g, proto, opts);
        result.fingerprint = rec.fingerprint();
        return result;
      };
      TrialWorkspace fresh;
      const SimResult reused = run(&ws, false);
      SCOPED_TRACE(testing::Message() << "lmax " << lmax << " jitter "
                                      << jitter << " ring " << ring_size());
      EXPECT_TRUE(reused.completed);
      EXPECT_EQ(reused, run(&fresh, false));
      EXPECT_EQ(reused, run(nullptr, true));
      if (first_run) {
        EXPECT_EQ(ring_size(), 13u);  // exactly ℓmax + 1
      }
      first_run = false;
    }
  }
  EXPECT_GT(ring_size(), 13u);  // jitter grew it
}

TEST(Engine, OversizedRingGivesWayToTheNextHorizon) {
  // One run over an ℓ = 10^6 link needs a ring of 10^6 + 1 buckets; the
  // next run, on unit latencies, must not inherit it for the
  // workspace's lifetime. Both runs still match a fresh workspace's,
  // event for event. Blocking keeps two exchanges in flight, not 2·10^6.
  TrialWorkspace ws;
  const auto ring_size = [&ws] {
    return ws.find_slot<detail::EngineState<bool>>()->slots.size();
  };
  const auto run = [](const WeightedGraph& g, TrialWorkspace* workspace) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(3));
    EventRecorder rec;
    SimOptions opts;
    opts.max_rounds = 2'000'000;
    opts.blocking = true;
    opts.recorder = &rec;
    opts.workspace = workspace;
    SimResult result = run_gossip(g, proto, opts);
    result.fingerprint = rec.fingerprint();
    return result;
  };
  const auto slow = build_graph(2, {{0, 1, 1'000'000}});
  const auto fast =
      build_graph(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}});
  for (const WeightedGraph* g : {&slow, &fast}) {
    TrialWorkspace fresh;
    const SimResult reused = run(*g, &ws);
    EXPECT_TRUE(reused.completed);
    EXPECT_EQ(reused, run(*g, &fresh));
    EXPECT_EQ(ring_size(), static_cast<std::size_t>(g->max_latency()) + 1);
  }
}

TEST(Engine, BothEndpointsSnapshotAtInitiationRound) {
  // Node 1 also initiates at round 1; node 0's exchange from round 0
  // must still carry round-0 snapshots (checked inside deliver()).
  const auto g = build_graph(2, {{0, 1, 4}});
  ScriptedProtocol proto(2);
  proto.schedule(0, 0, slot(g, 0, 1));
  proto.schedule(1, 1, slot(g, 1, 0));
  run_gossip(g, proto, {});
  ASSERT_EQ(proto.deliveries.size(), 4u);
}

/// A rumor-set protocol whose incremental count is one too high: its
/// engine capture hands that count to the arena, while its oracle
/// capture lets the arena count the copy itself.
class OvercountingRumors {
 public:
  using Payload = SnapshotRef;

  explicit OvercountingRumors(std::size_t n)
      : arena_(n), rumors_(own_id_rumors(n)) {}

  static std::size_t payload_bits(const Payload& p) { return p.count(); }

  std::optional<HalfEdge> select_contact(NodeId u, Round r) {
    if (u == 0 && r == 0) return HalfEdge{1, 0};
    return std::nullopt;
  }
  Payload capture_payload(NodeId u, Round) {
    return arena_.capture(rumors_[u], rumors_[u].count() + 1);
  }
  Payload capture_payload_copy(NodeId u, Round) {
    return arena_.capture(rumors_[u]);
  }
  void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round, Leg) {}
  bool done(Round) const { return false; }

 private:
  SnapshotArena arena_;
  std::vector<Bitset> rumors_;
};

TEST(OracleCapture, RecountsRumorSnapshots) {
  // A protocol whose rumor count drifts from its set must diverge from
  // the oracle: the oracle's capture recounts instead of trusting it.
  const auto g = build_graph(2, {{0, 1, 1}});
  OvercountingRumors engine_side(2);
  OvercountingRumors oracle_side(2);
  const SimResult engine = run_gossip(g, engine_side, {});
  const SimResult oracle = run_gossip_oracle(g, oracle_side, {});
  EXPECT_EQ(engine.payload_bits, 4u);  // two legs, each claiming 2 rumors
  EXPECT_EQ(oracle.payload_bits, 2u);  // two legs, each holding 1 rumor
  EXPECT_NE(engine.payload_bits, oracle.payload_bits);
}

}  // namespace
}  // namespace latgossip
