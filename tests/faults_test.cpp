// Tests for failure injection — the crash, link-loss and jitter fields
// of DynamicSpec (sim/dynamics_spec.h), run by DynamicPlan — and the
// robustness claims of the paper's conclusion: push-pull tolerates
// crashes and lossy links; the spanner route is brittle once its
// overlay loses nodes. Suite FaultPlan covers the plan's fault schedule
// itself (draws, validation, replay), Faults whole runs under it, and
// Jitter the latency stream.

#include <gtest/gtest.h>

#include <cmath>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/oracle.h"

namespace latgossip {
namespace {

/// A scenario with only the fault stream seeded; tests add the knobs.
DynamicSpec faults(std::uint64_t fault_seed) {
  DynamicSpec spec;
  spec.fault_seed = fault_seed;
  return spec;
}

std::size_t crashed_by(const DynamicPlan& plan, std::size_t n, Round r) {
  std::size_t c = 0;
  for (NodeId u = 0; u < n; ++u)
    if (plan.crashed(u, r)) ++c;
  return c;
}

TEST(FaultPlan, CrashScheduling) {
  DynamicSpec spec = faults(1);
  spec.crash_at = {{2, 10}};
  const DynamicPlan plan(4, 0, spec);
  EXPECT_FALSE(plan.crashed(2, 9));
  EXPECT_TRUE(plan.crashed(2, 10));
  EXPECT_TRUE(plan.crashed(2, 999));
  EXPECT_FALSE(plan.crashed(1, 999));
  EXPECT_EQ(crashed_by(plan, 4, 10), 1u);
  spec.crash_at = {{7, 0}};  // node out of range
  EXPECT_FALSE(dynamic_spec_error(spec, 4).empty());
  EXPECT_THROW(DynamicPlan(4, 0, spec), std::invalid_argument);
  spec.crash_at = {{0, -1}};  // negative round
  EXPECT_FALSE(dynamic_spec_error(spec, 4).empty());
  EXPECT_THROW(DynamicPlan(4, 0, spec), std::invalid_argument);
}

TEST(FaultPlan, RandomCrashesSpareTheSource) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    DynamicSpec spec = faults(seed);
    spec.crash_count = 5;
    spec.crash_spare = 3;
    const DynamicPlan plan(10, 0, spec);
    EXPECT_FALSE(plan.crashed(3, 100));
    EXPECT_EQ(crashed_by(plan, 10, 0), 5u);
  }
}

TEST(FaultPlan, ValidatesDropProbability) {
  DynamicSpec spec = faults(1);
  spec.drop_prob = 1.5;
  EXPECT_FALSE(dynamic_spec_error(spec, 3).empty());
  EXPECT_THROW(DynamicPlan(3, 0, spec), std::invalid_argument);
  spec.drop_prob = std::nan("");
  EXPECT_FALSE(dynamic_spec_error(spec, 3).empty());
  spec = faults(1);
  spec.crash_count = 3;  // no room beside the spare
  EXPECT_FALSE(dynamic_spec_error(spec, 3).empty());
  EXPECT_THROW(DynamicPlan(3, 0, spec), std::invalid_argument);
}

TEST(Faults, CrashedNodeNeverInitiatesOrReceives) {
  // Path 0-1-2 with node 1 crashed from the start: the rumor is stuck.
  const auto g = make_path(3);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  DynamicSpec spec = faults(5);
  spec.crash_at = {{1, 0}};
  DynamicPlan plan(3, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 500;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(proto.informed(1));
  EXPECT_FALSE(proto.informed(2));
  EXPECT_GT(r.messages_dropped, 0u);
}

TEST(Faults, LateCrashAfterInformDoesNotUndo) {
  const auto g = make_clique(8);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(7));
  DynamicSpec spec = faults(9);
  spec.crash_at = {{3, 100}};  // long after completion
  DynamicPlan plan(8, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 90;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

TEST(Faults, PushPullSurvivesHeavyLinkLoss) {
  // 30% delivery loss on a clique: push-pull still completes, just
  // slower — the conclusion's robustness claim.
  const auto g = make_clique(24);
  Round lossless = 0, lossy = 0;
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(11));
    SimOptions opts;
    opts.max_rounds = 100'000;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    lossless = r.rounds;
  }
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(11));
    DynamicSpec spec = faults(13);
    spec.drop_prob = 0.3;
    DynamicPlan plan(24, g.num_edges(), spec);
    SimOptions opts;
    opts.dynamics = &plan;
    opts.max_rounds = 100'000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_TRUE(r.completed);
    lossy = r.rounds;
    EXPECT_GT(r.messages_dropped, 0u);
  }
  EXPECT_GE(lossy, lossless);
}

TEST(Faults, PushPullSurvivesCrashesOfNonCutNodes) {
  // Crash a quarter of a clique mid-run; the survivors still finish.
  const auto g = make_clique(16);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(17));
  DynamicSpec spec = faults(19);
  spec.crash_count = 4;
  spec.crash_round = 2;
  spec.crash_spare = 0;
  DynamicPlan plan(16, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 100'000;
  run_gossip(g, proto, opts);
  // Completion flag can't fire (crashed nodes never inform), so check
  // the survivors directly.
  for (NodeId v = 0; v < 16; ++v) {
    if (!plan.crashed(v, 1'000'000)) {
      EXPECT_TRUE(proto.informed(v));
    }
  }
}

TEST(Faults, SpannerOverlayBrittleUnderCrash) {
  // RR broadcast over a sparse spanner: crash one spanner-internal node
  // and rumors relying on it stall — unlike push-pull on the full graph.
  Rng gen(23);
  auto g = make_erdos_renyi(24, 0.3, gen);
  Rng srng(29);
  const auto spanner = build_baswana_sen_spanner(g, {2, 0}, srng);
  // Find a node with positive out-degree to crash (overlay-relevant).
  NodeId victim = 1;
  for (NodeId v = 1; v < 24; ++v)
    if (spanner.out_degree(v) > 0) {
      victim = v;
      break;
    }
  NetworkView view(g, true);
  RRBroadcast proto(view, spanner, g.max_latency() * 10, own_id_rumors(24));
  DynamicSpec spec = faults(31);
  spec.crash_at = {{victim, 0}};
  DynamicPlan plan(24, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = proto.budget() * 2;
  run_gossip(g, proto, opts);
  // The crashed node's rumor cannot have reached anyone.
  for (NodeId v = 0; v < 24; ++v) {
    if (v != victim) {
      EXPECT_FALSE(proto.rumors()[v].test(victim));
    }
  }
}

TEST(Faults, RecorderCountsMatchSimResultUnderLinkLoss) {
  // Recorder event counts and the engine's aggregate counters are two
  // independent tallies of the same stream; under a seeded lossy run
  // they must agree exactly, and every initiated exchange must be fully
  // accounted for as deliveries + drops.
  const auto g = make_clique(24);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(11));
  DynamicSpec spec = faults(13);
  spec.drop_prob = 0.3;
  DynamicPlan plan(24, g.num_edges(), spec);
  EventRecorder rec;
  SimOptions opts;
  opts.dynamics = &plan;
  opts.recorder = &rec;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_EQ(rec.activations(), r.activations);
  EXPECT_EQ(rec.deliveries(), r.messages_delivered);
  EXPECT_EQ(rec.drops(), r.messages_dropped);
  // Each accepted exchange produces exactly two deliveries-or-drops.
  EXPECT_EQ(2 * (r.activations - r.exchanges_rejected),
            r.messages_delivered + r.messages_dropped);
}

TEST(Faults, RecorderSeparatesCrashDropsFromLinkDrops) {
  // Node 1 on a path is crashed from round 0: every loss is a crash
  // drop, none a link drop, and the totals still match SimResult.
  const auto g = make_path(3);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  DynamicSpec spec = faults(5);
  spec.crash_at = {{1, 0}};
  DynamicPlan plan(3, g.num_edges(), spec);
  EventRecorder rec;
  SimOptions opts;
  opts.dynamics = &plan;
  opts.recorder = &rec;
  opts.max_rounds = 500;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(rec.count(EventKind::kDrop), 0u);
  EXPECT_EQ(rec.count(EventKind::kCrashDrop), r.messages_dropped);
  EXPECT_GT(r.messages_dropped, 0u);
}

TEST(FaultPlan, CrashAllButOneLeavesOnlyTheSpare) {
  // count = n - 1 is the extreme the draw allows: every node except
  // the spare ends up crashed, and the draw still terminates.
  const std::size_t n = 10;
  DynamicSpec spec = faults(17);
  spec.crash_count = n - 1;
  spec.crash_spare = 4;
  const DynamicPlan plan(n, 0, spec);
  EXPECT_EQ(crashed_by(plan, n, 0), n - 1);
  EXPECT_FALSE(plan.crashed(4, 1'000'000));
  for (NodeId u = 0; u < n; ++u) {
    if (u != 4) {
      EXPECT_TRUE(plan.crashed(u, 0));
    }
  }
  // One more than n - 1 must be rejected, not spin forever; so must a
  // draw that explicit crashes leave no room for.
  spec.crash_count = n;
  EXPECT_THROW(DynamicPlan(n, 0, spec), std::invalid_argument);
  spec.crash_count = n - 1;
  spec.crash_at = {{0, 5}};
  EXPECT_THROW(DynamicPlan(n, 0, spec), std::invalid_argument);
}

TEST(FaultPlan, CrashEveryoneButSourceAtRoundZeroStallsTheRun) {
  // The run degenerates to the source alone: no deliveries can land,
  // the engine stops idle and incomplete rather than spinning.
  const auto g = make_clique(8);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(21));
  DynamicSpec spec = faults(9);
  spec.crash_count = 7;
  spec.crash_spare = 0;
  DynamicPlan plan(8, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 2000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_FALSE(r.completed);
  for (NodeId u = 1; u < 8; ++u) EXPECT_FALSE(proto.informed(u));
}

TEST(FaultPlan, DropProbabilityExtremes) {
  // p = 0.0 draws nothing from the loss stream: the run is loss-free
  // and bit-identical to a run without the plan.
  const auto g = make_clique(12);
  {
    NetworkView view(g, false);
    PushPullBroadcast plain(view, 0, Rng(31));
    SimOptions no_plan;
    no_plan.max_rounds = 2000;
    const SimResult expected = run_gossip(g, plain, no_plan);

    PushPullBroadcast proto(view, 0, Rng(31));
    DynamicSpec spec = faults(7);
    spec.drop_prob = 0.0;
    DynamicPlan plan(12, g.num_edges(), spec);
    SimOptions opts;
    opts.dynamics = &plan;
    opts.max_rounds = 2000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.messages_dropped, 0u);
    EXPECT_EQ(r, expected);
  }
  // p = 1.0 loses every payload: nothing is ever delivered, the source
  // stays alone, and every initiated exchange turns into drops.
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(31));
    DynamicSpec spec = faults(7);
    spec.drop_prob = 1.0;
    DynamicPlan plan(12, g.num_edges(), spec);
    SimOptions opts;
    opts.dynamics = &plan;
    opts.max_rounds = 2000;
    const SimResult r = run_gossip(g, proto, opts);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.messages_delivered, 0u);
    EXPECT_GT(r.messages_dropped, 0u);
    for (NodeId u = 1; u < 12; ++u) EXPECT_FALSE(proto.informed(u));
  }
}

TEST(FaultPlan, EveryRunReplaysTheSameScenario) {
  // The engine rewinds the plan's loss and jitter streams as each run
  // starts, so one plan drives any number of runs identically.
  const auto g = make_clique(16);
  DynamicSpec spec = faults(3);
  spec.crash_count = 2;
  spec.crash_round = 1;
  spec.drop_prob = 0.4;
  spec.jitter_spread = 2;
  spec.jitter_seed = 8;
  DynamicPlan plan(16, g.num_edges(), spec);
  auto run_once = [&] {
    EventRecorder rec;
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(41));
    SimOptions opts;
    opts.dynamics = &plan;
    opts.recorder = &rec;
    opts.max_rounds = 5000;
    SimResult r = run_gossip(g, proto, opts);
    r.fingerprint = rec.fingerprint();
    return r;
  };
  const SimResult first = run_once();
  EXPECT_GT(first.messages_dropped, 0u);
  EXPECT_EQ(run_once(), first);
}

TEST(FaultPlan, PlanMatchesOracleOnCrashesAndLossStream) {
  // The plan's crash table and the oracle's crash log are independent
  // mechanisations of the crash contract; both leave the fault stream
  // in the same state for the loss draws.
  const std::size_t n = 9;
  for (std::uint64_t seed : {0ull, 5ull, 77ull, 1234ull}) {
    DynamicSpec spec = faults(seed);
    spec.crash_at = {{2, 4}, {6, 1}, {2, 7}};  // the later entry for 2 wins
    spec.crash_count = 3;
    spec.crash_round = 3;
    spec.crash_spare = 5;
    spec.drop_prob = 0.5;
    DynamicPlan plan(n, 0, spec);
    oracle_detail::OracleFaults oracle = oracle_detail::oracle_faults(spec, n);
    for (NodeId u = 0; u < n; ++u)
      for (Round r = 0; r <= 10; ++r)
        EXPECT_EQ(plan.crashed(u, r),
                  oracle_detail::oracle_node_crashed(oracle, u, r))
            << "node " << u << " round " << r << " seed " << seed;
    EXPECT_FALSE(plan.crashed(5, 1'000'000));
    EXPECT_FALSE(plan.crashed(2, 6));
    EXPECT_TRUE(plan.crashed(2, 7));
    for (int i = 0; i < 64; ++i)
      EXPECT_EQ(plan.drop_leg(), oracle.loss.bernoulli(spec.drop_prob));
  }
}

TEST(Jitter, UniformJitterStaysPositiveAndBounded) {
  DynamicSpec spec;
  spec.jitter_spread = 3;
  spec.jitter_seed = 41;
  DynamicPlan jitter(2, 1, spec);
  for (int i = 0; i < 1000; ++i) {
    const Latency l = jitter.adjust_latency(0, 1, 0, 5, 0);
    EXPECT_GE(l, 2);
    EXPECT_LE(l, 8);
  }
  spec.jitter_spread = 10;
  spec.jitter_seed = 43;
  DynamicPlan tight(2, 1, spec);
  for (int i = 0; i < 1000; ++i)
    EXPECT_GE(tight.adjust_latency(0, 1, 0, 2, 0), 1);
  spec.jitter_spread = -1;
  EXPECT_THROW(DynamicPlan(2, 1, spec), std::invalid_argument);
}

TEST(Jitter, PushPullCompletesUnderJitter) {
  auto g = make_clique(16);
  assign_uniform_latency(g, 6);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(47));
  DynamicSpec spec;
  spec.jitter_spread = 4;
  spec.jitter_seed = 53;
  DynamicPlan plan(16, g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace latgossip
