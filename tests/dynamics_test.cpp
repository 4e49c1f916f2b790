// Property tests for dynamic topologies (sim/dynamics.h): spec
// validation and parsing, engine-plan vs oracle-brute-force agreement
// on the derived schedules (drift factors, churn intervals, rejoin
// resets), engine runs under churn respecting absence invariants,
// rejoin-with-reset equalling a fresh node, the adversary's frontier
// targeting, deterministic replay, and the shrinker reducing an
// injected dynamics bug to a tiny counterexample.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/case_gen.h"
#include "check/differential.h"
#include "check/invariants.h"
#include "check/shrink.h"
#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/freshness.h"
#include "sim/oracle.h"

namespace latgossip {
namespace {

DynamicSpec drift_spec(std::uint64_t step, std::uint64_t bound,
                       std::uint64_t seed) {
  DynamicSpec d;
  d.drift_step = step;
  d.drift_bound = bound;
  d.seed = seed;
  return d;
}

DynamicSpec churn_spec(double prob, Round window, Round absence, int mode,
                       NodeId spare, std::uint64_t seed) {
  DynamicSpec d;
  d.churn_prob = prob;
  d.churn_window = window;
  d.churn_absence = absence;
  d.churn_mode = mode;
  d.churn_spare = spare;
  d.seed = seed;
  return d;
}

TEST(DynamicSpecTest, ValidationCatchesBadKnobs) {
  EXPECT_TRUE(dynamic_spec_error(DynamicSpec{}, 4).empty());

  DynamicSpec d = drift_spec(64, 2048, 7);
  EXPECT_TRUE(dynamic_spec_error(d, 4).empty());
  d.drift_step = 1024;  // a full step would allow factor 0
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = drift_spec(64, 512, 7);  // bound below the 1024 fixed-point one
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());

  d = churn_spec(0.5, 8, 4, 1, 0, 7);
  EXPECT_TRUE(dynamic_spec_error(d, 4).empty());
  EXPECT_FALSE(dynamic_spec_error(d, 1).empty());  // churn needs n >= 2
  d.churn_prob = 1.5;
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = churn_spec(0.5, 0, 4, 1, 0, 7);  // empty leave window
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = churn_spec(0.5, 8, 4, 3, 0, 7);  // mode out of range
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = churn_spec(0.5, 8, 4, 1, 9, 4);  // spare out of range
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());

  d = DynamicSpec{};
  d.adv_slow = 512;  // speedups are not adversarial
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = DynamicSpec{};
  d.adv_source = 4;
  d.adv_slow = 2048;
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = drift_spec(64, 2048, 7);
  d.seed = 0;
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());

  // Non-finite probabilities fail the range test instead of slipping
  // through it (NaN compares false both ways).
  d = churn_spec(std::nan(""), 8, 4, 1, 0, 7);
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = churn_spec(INFINITY, 8, 4, 1, 0, 7);
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d = DynamicSpec{};
  d.drop_prob = std::nan("");
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());
  d.drop_prob = -INFINITY;
  EXPECT_FALSE(dynamic_spec_error(d, 4).empty());

  // The plan constructor enforces the same contract.
  EXPECT_THROW(DynamicPlan(4, 6, drift_spec(2000, 2048, 7)),
               std::invalid_argument);
}

TEST(DynamicSpecTest, ParseRoundTripAndDefaults) {
  const DynamicSpec d = parse_dynamics_spec(
      "drift=32,drift-bound=4096,churn=0.25,churn-window=12,"
      "churn-absence=3,churn-mode=mixed,adv=1536,seed=11",
      8, /*source=*/2);
  EXPECT_EQ(d.drift_step, 32u);
  EXPECT_EQ(d.drift_bound, 4096u);
  EXPECT_DOUBLE_EQ(d.churn_prob, 0.25);
  EXPECT_EQ(d.churn_window, 12);
  EXPECT_EQ(d.churn_absence, 3);
  EXPECT_EQ(d.churn_mode, 2);
  EXPECT_EQ(d.churn_spare, 2u);
  EXPECT_EQ(d.adv_slow, 1536u);
  EXPECT_EQ(d.adv_source, 2u);
  EXPECT_EQ(d.seed, 11u);
  EXPECT_TRUE(d.drift_active() && d.churn_active() && d.adv_active());
  EXPECT_FALSE(describe_dynamics(d).empty());

  // Churn alone picks up the documented window/absence/mode defaults.
  const DynamicSpec c = parse_dynamics_spec("churn=0.5", 8, 0);
  EXPECT_EQ(c.churn_window, 16);
  EXPECT_EQ(c.churn_absence, 8);
  EXPECT_EQ(c.churn_mode, 1);
  EXPECT_FALSE(c.drift_active());
  EXPECT_FALSE(c.adv_active());

  EXPECT_THROW(parse_dynamics_spec("drift=abc", 8, 0), std::invalid_argument);
  EXPECT_THROW(parse_dynamics_spec("warp=9", 8, 0), std::invalid_argument);
  EXPECT_THROW(parse_dynamics_spec("churn-mode=gone", 8, 0),
               std::invalid_argument);
  EXPECT_THROW(parse_dynamics_spec("churn=0.5", 1, 0), std::invalid_argument);

  // Hostile values: trailing garbage, non-finite probabilities, and
  // numbers that only fit after narrowing are all rejected.
  for (const char* text :
       {"churn=0.5abc", "churn=nan", "churn=inf", "churn=-nan", "churn=1e999",
        "drift=4294967297", "drift-bound=4294969344", "adv=4294968320",
        "churn=0.5,churn-window=9223372036854775808",
        "churn=0.5,churn-absence=18446744073709551615",
        "churn=0.5,churn-window=2000000000000", "seed=18446744073709551616",
        "drift=16x"})
    EXPECT_THROW(parse_dynamics_spec(text, 8, 0), std::invalid_argument)
        << text;
}

TEST(DynamicSpecTest, CanonicalFormIsExact) {
  // No scenario serializes to "" (the store key every existing record
  // was written under).
  EXPECT_EQ(canonical_dynamics(DynamicSpec{}), "");
  EXPECT_EQ(canonical_dynamics(parse_dynamics_spec("seed=9", 8, 0)), "");
  // Probabilities that print alike at 6 significant digits still
  // serialize apart, and so does every seed that drives a schedule.
  const DynamicSpec a = parse_dynamics_spec("churn=0.1234567", 8, 0);
  const DynamicSpec b = parse_dynamics_spec("churn=0.1234568", 8, 0);
  EXPECT_EQ(describe_dynamics(a), describe_dynamics(b));
  EXPECT_NE(canonical_dynamics(a), canonical_dynamics(b));
  EXPECT_NE(canonical_dynamics(parse_dynamics_spec("drift=16,seed=5", 8, 0)),
            canonical_dynamics(parse_dynamics_spec("drift=16,seed=6", 8, 0)));
  // The adversary draws no randomness, so its key ignores the seed.
  EXPECT_EQ(canonical_dynamics(parse_dynamics_spec("adv=2048,seed=5", 8, 0)),
            canonical_dynamics(parse_dynamics_spec("adv=2048,seed=6", 8, 0)));
  DynamicSpec lossy;
  lossy.drop_prob = 0.25;
  lossy.fault_seed = 3;
  DynamicSpec other_stream = lossy;
  other_stream.fault_seed = 4;
  EXPECT_NE(canonical_dynamics(lossy), canonical_dynamics(other_stream));
}

// The plan's incremental per-edge drift cache and the oracle's
// from-scratch recomputation are independent mechanisations of the same
// contract; they must agree on every (edge, round), stay inside the
// clamp band, and replay identically after begin_run().
TEST(DynamicsDriftTest, PlanMatchesOracleAndReplays) {
  const std::size_t num_edges = 9;
  for (std::uint64_t seed : {1ull, 42ull, 9001ull}) {
    const DynamicSpec spec = drift_spec(128, 4096, seed);
    DynamicPlan plan(6, num_edges, spec);
    std::vector<Latency> first_pass;
    for (Round r = 0; r <= 40; ++r) {
      for (EdgeId e = 0; e < num_edges; ++e) {
        const Latency base = 1 + static_cast<Latency>(e % 5);
        const Latency adj = plan.adjust_latency(0, 1, e, base, r);
        first_pass.push_back(adj);
        const std::uint64_t f =
            oracle_detail::oracle_drift_factor(spec, e, r);
        const Latency expect = std::max<Latency>(
            1, static_cast<Latency>(
                   (static_cast<std::uint64_t>(base) * f) / 1024));
        EXPECT_EQ(adj, expect) << "edge " << e << " round " << r;
        EXPECT_GE(f, 1024ull * 1024ull / spec.drift_bound);
        EXPECT_LE(f, spec.drift_bound);
        EXPECT_GE(adj, 1);
      }
    }
    // Replay: begin_run() rewinds the incremental cache.
    plan.begin_run();
    std::size_t i = 0;
    for (Round r = 0; r <= 40; ++r)
      for (EdgeId e = 0; e < num_edges; ++e) {
        const Latency base = 1 + static_cast<Latency>(e % 5);
        EXPECT_EQ(plan.adjust_latency(0, 1, e, base, r), first_pass[i++]);
      }
  }
}

TEST(DynamicsChurnTest, PlanMatchesOracleOnAbsenceAndResets) {
  const std::size_t n = 12;
  for (std::uint64_t seed : {3ull, 77ull, 500ull}) {
    const DynamicSpec spec = churn_spec(0.6, 10, 6, 2, /*spare=*/4, seed);
    const DynamicPlan plan(n, 20, spec);
    bool anyone_left = false;
    for (Round r = 0; r <= 30; ++r) {
      // Membership of the reset span vs the oracle's per-node answer.
      const std::span<const NodeId> resets = plan.resets_at(r);
      EXPECT_TRUE(std::is_sorted(resets.begin(), resets.end()));
      for (NodeId u = 0; u < n; ++u) {
        EXPECT_EQ(plan.absent(u, r),
                  oracle_detail::oracle_node_absent(spec, u, r))
            << "node " << u << " round " << r;
        const bool in_span =
            std::find(resets.begin(), resets.end(), u) != resets.end();
        EXPECT_EQ(in_span,
                  oracle_detail::oracle_node_resets_at(spec, u, r))
            << "node " << u << " round " << r;
        if (plan.absent(u, r)) {
          anyone_left = true;
          EXPECT_NE(u, spec.churn_spare);  // the spare never leaves
        }
      }
    }
    EXPECT_TRUE(anyone_left) << "churn=0.6 produced no churn at seed "
                             << seed;
  }
}

TEST(DynamicsChurnTest, AbsenceBiasExtendsTheOracleWindow) {
  // The test-only ModelBug knob: a bias must strictly extend some
  // node's absence, which is what makes the planted bug observable.
  const DynamicSpec spec = churn_spec(0.9, 6, 3, 0, 0, 13);
  bool extended = false;
  for (NodeId u = 0; u < 8 && !extended; ++u)
    for (Round r = 0; r <= 30; ++r)
      if (!oracle_detail::oracle_node_absent(spec, u, r) &&
          oracle_detail::oracle_node_absent(spec, u, r, /*bias=*/4)) {
        extended = true;
        break;
      }
  EXPECT_TRUE(extended);
}

TEST(DynamicsAdversaryTest, SlowsOnlyFrontierCrossingEdges) {
  DynamicSpec spec;
  spec.adv_slow = 2048;  // 2x
  spec.adv_source = 0;
  spec.seed = 5;
  DynamicPlan plan(4, 4, spec);
  // Initially touched = {0}: edges leaving node 0 cross the frontier.
  EXPECT_EQ(plan.adjust_latency(0, 1, 0, 10, 1), 20);
  EXPECT_EQ(plan.adjust_latency(1, 0, 0, 10, 1), 20);
  EXPECT_EQ(plan.adjust_latency(1, 2, 1, 10, 1), 10);  // both untouched
  // A successful delivery moves node 1 inside the frontier.
  plan.note_delivery(1);
  EXPECT_EQ(plan.adjust_latency(0, 1, 0, 10, 3), 10);  // now interior
  EXPECT_EQ(plan.adjust_latency(1, 2, 1, 10, 3), 20);  // new frontier
  // begin_run() resets the touched set back to the adversary's source.
  plan.begin_run();
  EXPECT_EQ(plan.adjust_latency(1, 2, 1, 10, 1), 10);
  EXPECT_EQ(plan.adjust_latency(0, 1, 0, 10, 1), 20);
}

TEST(DynamicsEngineTest, HookWiringAndDeterministicReplay) {
  Rng graph_rng(9);
  const auto g = make_erdos_renyi(20, 0.3, graph_rng);
  ASSERT_TRUE(g.is_connected());
  DynamicSpec spec = drift_spec(64, 2048, 21);
  spec.adv_slow = 1536;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);

  SimOptions opts;
  EXPECT_FALSE(opts.any_hooks());
  opts.dynamics = &plan;
  EXPECT_TRUE(opts.any_hooks());
  opts.dynamics = nullptr;
  EXPECT_FALSE(opts.any_hooks());

  auto run_once = [&]() {
    thread_local EventRecorder rec;
    rec.clear();
    SimOptions o;
    o.max_rounds = 5000;
    o.recorder = &rec;
    DynamicPlan p(g.num_nodes(), g.num_edges(), spec);
    o.dynamics = &p;
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(17));
    const SimResult res = run_gossip(g, proto, o);
    EXPECT_TRUE(res.completed);
    return rec.fingerprint();
  };
  // Same (protocol seed, dynamics spec) => bit-identical event stream.
  EXPECT_EQ(run_once(), run_once());
}

TEST(DynamicsEngineTest, ChurnRunSatisfiesAbsenceInvariants) {
  Rng graph_rng(4);
  auto g = make_erdos_renyi(24, 0.35, graph_rng);
  ASSERT_TRUE(g.is_connected());
  Rng lat_rng(8);
  assign_random_uniform_latency(g, 1, 5, lat_rng);
  const DynamicSpec spec = churn_spec(0.5, 12, 6, 1, /*spare=*/0, 33);
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);

  EventRecorder rec(EventLog::kKeep);
  SimOptions opts;
  opts.max_rounds = 5000;
  opts.recorder = &rec;
  opts.dynamics = &plan;
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(6));
  const SimResult res = run_gossip(g, proto, opts);

  InvariantInput in;
  in.graph = &g;
  in.result = res;
  in.recorder = &rec;
  in.dynamics = &spec;
  const auto failures = check_invariants(in, "engine");
  EXPECT_TRUE(failures.empty())
      << (failures.empty() ? "" : failures.front());
  // The scenario actually bit: someone was absent at some point.
  bool anyone_absent = false;
  for (NodeId u = 0; u < g.num_nodes() && !anyone_absent; ++u)
    for (Round r = 0; r <= res.rounds; ++r)
      if (plan.absent(u, r)) {
        anyone_absent = true;
        break;
      }
  EXPECT_TRUE(anyone_absent);
}

TEST(DynamicsResetTest, RejoinWithResetEqualsFreshNode) {
  // Broadcast: after reset a node is indistinguishable from one that
  // was never informed.
  const auto g = make_clique(6);
  {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(2));
    SimOptions opts;
    opts.max_rounds = 500;
    ASSERT_TRUE(run_gossip(g, proto, opts).completed);
    ASSERT_TRUE(proto.informed(3));
    proto.reset_node(3, 40);
    EXPECT_FALSE(proto.informed(3));
    EXPECT_EQ(proto.inform_round(3), -1);
    EXPECT_EQ(proto.last_gain_round(3), -1);
  }
  // All-to-all flooding: after reset the node's rumor set equals the
  // fresh initial state {u}, and the satisfied accounting follows.
  {
    const std::size_t n = g.num_nodes();
    NetworkView view(g, false);
    PushPullGossip proto(view, GossipGoal::kAllToAll, 0, own_id_rumors(n),
                         Rng{}, ContactRule::kRoundRobin);
    PushPullGossip fresh(view, GossipGoal::kAllToAll, 0, own_id_rumors(n),
                         Rng{}, ContactRule::kRoundRobin);
    SimOptions opts;
    opts.max_rounds = 500;
    ASSERT_TRUE(run_gossip(g, proto, opts).completed);
    ASSERT_GT(proto.rumors()[2].count(), 1u);
    proto.reset_node(2, 40);
    for (NodeId v = 0; v < n; ++v)
      EXPECT_EQ(proto.rumors()[2].test(v), fresh.rumors()[2].test(v));
    EXPECT_EQ(proto.last_gain_round(2), 40);
    EXPECT_FALSE(proto.done(40));  // node 2 is unsatisfied again
  }
}

TEST(DynamicsFreshnessTest, AgesAreBoundedAndInformedCounted) {
  const auto g = make_cycle(10);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(5));
  SimOptions opts;
  opts.max_rounds = 500;
  const SimResult res = run_gossip(g, proto, opts);
  ASSERT_TRUE(res.completed);
  const FreshnessStats f = freshness_of(proto, g.num_nodes(), res.rounds);
  ASSERT_TRUE(f.valid);
  EXPECT_EQ(f.informed_nodes, g.num_nodes());
  EXPECT_LE(f.mean_age, static_cast<double>(f.max_age));
  EXPECT_LE(f.max_age, res.rounds);
  // The source gained at round 0 => its age is the full run length.
  EXPECT_EQ(f.max_age, res.rounds);

  // Protocols without the last_gain_round hook report invalid stats.
  struct NoHook {};
  const FreshnessStats none = freshness_of(NoHook{}, 10, 5);
  EXPECT_FALSE(none.valid);
}

// Shrinker teeth: freeze the oracle's drift interpretation (a planted
// model bug), hand the divergence to the shrinker, and require a tiny
// counterexample that still carries an active drift schedule.
TEST(DynamicsShrinkTest, PlantedDriftBugShrinksToSmallCase) {
  TestCase tc;
  tc.proto = CheckProto::kPushPull;
  tc.num_nodes = 12;
  for (NodeId u = 0; u < tc.num_nodes; ++u)
    for (NodeId v = u + 1; v < tc.num_nodes; ++v)
      tc.edges.push_back(
          Edge{u, v, 3 + static_cast<Latency>((u + v) % 6)});
  tc.seed = 19;
  tc.dynamics.drift_step = 256;
  tc.dynamics.drift_bound = 4096;
  tc.dynamics.seed = 23;
  ASSERT_TRUE(case_valid(tc));

  oracle_detail::ModelBug bug;
  bug.freeze_drift = true;
  ASSERT_FALSE(run_differential(tc, bug).ok)
      << "planted drift bug was not observable";

  ShrinkStats stats;
  const TestCase minimal = shrink_case(
      tc, [&](const TestCase& c) { return !run_differential(c, bug).ok; },
      &stats);
  EXPECT_LE(minimal.num_nodes, 6u);
  EXPECT_TRUE(minimal.dynamics.drift_active())
      << "shrinker dropped the knob that makes the bug fire";
  EXPECT_FALSE(run_differential(minimal, bug).ok);
  EXPECT_GT(stats.accepted, 0u);
}

}  // namespace
}  // namespace latgossip
