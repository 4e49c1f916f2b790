// Differential conformance: the optimized engine (sim/engine.h) vs the
// naive reference oracle (sim/oracle.h) over thousands of random cases
// spanning every protocol, graph family, latency model, and fault/model
// knob the case generator knows. Any divergence in SimResult counters,
// event-stream fingerprints, or composite outcomes fails with a full
// reproducible case dump. The model invariants (check/invariants.h) run
// on both sides of every case.

#include <array>
#include <sstream>

#include <gtest/gtest.h>

#include "check/case_gen.h"
#include "check/differential.h"

namespace latgossip {
namespace {

std::string failure_dump(const TestCase& tc, const DiffReport& rep) {
  std::ostringstream os;
  os << "case: " << describe(tc) << "\n";
  for (const std::string& f : rep.failures) os << "  " << f << "\n";
  write_case(os, tc);
  return os.str();
}

/// Coverage counters a sweep accumulates, so tests can assert the case
/// generator actually visited the advertised space instead of silently
/// degenerating (e.g. a probability knob regressing to zero).
struct Coverage {
  std::array<int, static_cast<std::size_t>(CheckProto::kCount)> per_proto{};
  int faulted = 0;
  int fault_free = 0;
  int drifting = 0;
  int churning = 0;
  int adversarial = 0;
  int unified_known = 0;    ///< unified's known-latency branch
  int unified_unknown = 0;  ///< and its unknown-latency one
  int budget_cut = 0;       ///< composites their round budget cut
};

void sweep(Rng& rng, const CaseProfile& profile, int cases,
           Coverage* cov = nullptr) {
  for (int i = 0; i < cases; ++i) {
    const TestCase tc = random_case(rng, profile);
    ASSERT_TRUE(case_valid(tc)) << describe(tc);
    const DiffReport rep = run_differential(tc);
    ASSERT_TRUE(rep.ok) << failure_dump(tc, rep);
    if (!cov) continue;
    ++cov->per_proto[static_cast<std::size_t>(tc.proto)];
    if (tc.dynamics.faults_active())
      ++cov->faulted;
    else
      ++cov->fault_free;
    if (tc.dynamics.drift_active()) ++cov->drifting;
    if (tc.dynamics.churn_active()) ++cov->churning;
    if (tc.dynamics.adv_active()) ++cov->adversarial;
    if (tc.proto == CheckProto::kUnified)
      ++(tc.latencies_known ? cov->unified_known : cov->unified_unknown);
    if (rep.budget_cut) ++cov->budget_cut;
  }
}

// The quick-profile sweep: >= 2000 random cases across all twelve
// protocols (including the rumor-set goals and local broadcasts that
// exercise the copy-on-write snapshot payloads), with and without
// faults, plus the dynamic families (drift / churn / adversary); zero
// divergence tolerated.
TEST(Differential, QuickProfileSweep) {
  Rng rng(0x20260806);
  Coverage cov;
  sweep(rng, CaseProfile{}, 2000, &cov);

  // The sweep must actually have covered the advertised space.
  for (std::size_t p = 0; p < cov.per_proto.size(); ++p)
    EXPECT_GT(cov.per_proto[p], 0)
        << "protocol " << check_proto_name(static_cast<CheckProto>(p))
        << " never generated";
  EXPECT_GT(cov.faulted, 50);
  EXPECT_GT(cov.fault_free, 50);
  EXPECT_GT(cov.drifting, 10);
  EXPECT_GT(cov.churning, 10);
  EXPECT_GT(cov.adversarial, 10);
  EXPECT_GT(cov.unified_known, 10);
  EXPECT_GT(cov.unified_unknown, 10);
  EXPECT_GT(cov.budget_cut, 50);
}

// Model-variant stress: every case runs blocking or in-degree-capped or
// jittered (knob probabilities cranked via a biased profile is not
// supported, so force the knobs directly on generated topologies).
TEST(Differential, ForcedModelKnobs) {
  Rng rng(7);
  CaseProfile profile;
  profile.composites = false;
  for (int i = 0; i < 150; ++i) {
    TestCase tc = random_case(rng, profile);
    tc.blocking = (i % 3) == 0;
    tc.max_incoming_per_round = (i % 3) == 1 ? 1 : 0;
    tc.dynamics.jitter_spread = (i % 3) == 2 ? 2 : 0;
    const DiffReport rep = run_differential(tc);
    ASSERT_TRUE(rep.ok) << failure_dump(tc, rep);
  }
}

// Dynamic-scenario stress: force each family (drift, churn in every
// mode, adversary, and all three combined) onto random simple-protocol
// topologies instead of waiting for the generator's 25% roll.
TEST(Differential, ForcedDynamics) {
  Rng rng(0xd15c0);
  CaseProfile profile;
  profile.composites = false;
  profile.allow_dynamics = false;  // scenarios are forced below
  for (int i = 0; i < 120; ++i) {
    TestCase tc = random_case(rng, profile);
    tc.dynamics.seed = 0x51u + static_cast<std::uint64_t>(i) * 2;
    switch (i % 4) {
      case 0:
        tc.dynamics.drift_step = 16u << (i % 5);
        tc.dynamics.drift_bound = (i % 2) != 0 ? 2048 : 4096;
        break;
      case 1:
        tc.dynamics.churn_prob = 0.3 + 0.05 * static_cast<double>(i % 10);
        tc.dynamics.churn_window = 4 + (i % 12);
        tc.dynamics.churn_absence = 2 + (i % 7);
        tc.dynamics.churn_mode = i % 3;
        tc.dynamics.churn_spare = tc.source;
        break;
      case 2:
        tc.dynamics.adv_slow = 1536 + 64u * static_cast<std::uint64_t>(i);
        tc.dynamics.adv_source = tc.source;
        break;
      default:
        tc.dynamics.drift_step = 64;
        tc.dynamics.churn_prob = 0.4;
        tc.dynamics.churn_window = 8;
        tc.dynamics.churn_absence = 4;
        tc.dynamics.churn_mode = 2;
        tc.dynamics.churn_spare = tc.source;
        tc.dynamics.adv_slow = 2048;
        tc.dynamics.adv_source = tc.source;
        break;
    }
    ASSERT_TRUE(case_valid(tc)) << describe(tc);
    const DiffReport rep = run_differential(tc);
    ASSERT_TRUE(rep.ok) << failure_dump(tc, rep);
  }
}

// Composite protocols take no scenario yet (their phases would need the
// plan on the composite clock), and standalone DTG's script assumes
// every exchange with a linked neighbor lands (it throws on a lost
// one), so random cases must keep every engine-model knob off for both
// — and case_valid must reject a hand-built case that smuggles one in
// (this used to be convention only; now it is an enforced contract).
TEST(Differential, CompositeCasesKeepKnobsOff) {
  Rng rng(0xc0de);
  CaseProfile profile;
  int composites_seen = 0;
  int local_seen = 0;
  for (int i = 0; i < 400; ++i) {
    const TestCase tc = random_case(rng, profile);
    if (check_proto_takes_knobs(tc.proto)) continue;
    if (check_proto_is_composite(tc.proto)) {
      ++composites_seen;
    } else {
      ++local_seen;
      EXPECT_NE(describe(tc).find(" k="), std::string::npos) << describe(tc);
    }
    EXPECT_FALSE(tc.blocking) << describe(tc);
    EXPECT_EQ(tc.max_incoming_per_round, 0u) << describe(tc);
    EXPECT_FALSE(tc.dynamics.any()) << describe(tc);
  }
  EXPECT_GT(composites_seen, 30);
  EXPECT_GT(local_seen, 20);

  // Hand-built violations are rejected outright.
  for (const CheckProto proto : {CheckProto::kUnified, CheckProto::kLocalDtg,
                                 CheckProto::kLocalRandom}) {
    TestCase tc;
    tc.proto = proto;
    tc.num_nodes = 4;
    tc.edges = {Edge{0, 1, 1}, Edge{1, 2, 1}, Edge{2, 3, 1}, Edge{0, 3, 1}};
    ASSERT_TRUE(case_valid(tc));
    TestCase with_dynamics = tc;
    with_dynamics.dynamics.drift_step = 64;
    EXPECT_FALSE(case_valid(with_dynamics));
    TestCase with_faults = tc;
    with_faults.dynamics.drop_prob = 0.5;
    EXPECT_FALSE(case_valid(with_faults));
    TestCase with_jitter = tc;
    with_jitter.dynamics.jitter_spread = 2;
    EXPECT_FALSE(case_valid(with_jitter));
    TestCase with_blocking = tc;
    with_blocking.blocking = true;
    EXPECT_FALSE(case_valid(with_blocking));
  }
}

// The shrinker drops a candidate edge list only because case_valid says
// no, so every malformed list must be rejected (and not throw).
TEST(Differential, CaseValidRejectsMalformedEdgeLists) {
  TestCase base;
  base.num_nodes = 4;
  base.edges = {Edge{0, 1, 1}, Edge{1, 2, 3}, Edge{2, 3, 1}};
  ASSERT_TRUE(case_valid(base));
  auto with_edge = [&base](Edge e) {
    TestCase tc = base;
    tc.edges.push_back(e);
    return tc;
  };
  EXPECT_FALSE(case_valid(with_edge(Edge{1, 2, 5})));  // duplicate, same way
  EXPECT_FALSE(case_valid(with_edge(Edge{2, 1, 1})));  // duplicate, reversed
  EXPECT_FALSE(case_valid(with_edge(Edge{3, 3, 1})));  // self-loop
  EXPECT_FALSE(case_valid(with_edge(Edge{0, 4, 1})));  // endpoint out of range
  EXPECT_FALSE(case_valid(with_edge(Edge{0, 3, 0})));  // latency 0
  TestCase disconnected = base;
  disconnected.edges.pop_back();
  EXPECT_FALSE(case_valid(disconnected));
}

// The harness has teeth: an injected off-by-one latency bias in the
// oracle must be flagged on any case that exchanges at least once.
TEST(Differential, InjectedBugIsDetected) {
  Rng rng(99);
  CaseProfile profile;
  profile.composites = false;
  profile.allow_faults = false;
  profile.allow_model_variants = false;
  oracle_detail::ModelBug bug;
  bug.latency_bias = 1;
  int detected = 0;
  for (int i = 0; i < 20; ++i) {
    const TestCase tc = random_case(rng, profile);
    const DiffReport rep = run_differential(tc, bug);
    if (rep.engine_result.activations > 0) {
      EXPECT_FALSE(rep.ok) << describe(tc);
      if (!rep.ok) ++detected;
    }
  }
  EXPECT_GT(detected, 10);
}

// Dropping the initiator-bound leg is the other injectable bug; it must
// diverge on delivery counts, not crash.
TEST(Differential, InjectedLegDropIsDetected) {
  Rng rng(123);
  CaseProfile profile;
  profile.composites = false;
  profile.allow_faults = false;
  profile.allow_model_variants = false;
  oracle_detail::ModelBug bug;
  bug.drop_initiator_leg = true;
  int detected = 0;
  for (int i = 0; i < 20; ++i) {
    const TestCase tc = random_case(rng, profile);
    const DiffReport rep = run_differential(tc, bug);
    if (rep.engine_result.messages_delivered > 0 && !rep.ok) ++detected;
  }
  EXPECT_GT(detected, 10);
}

// The oracle interprets the crash contract with its own code, so a crash
// bug planted there must surface as a divergence.
TEST(Differential, InjectedCrashDelayIsDetected) {
  Rng rng(321);
  CaseProfile profile;
  profile.min_nodes = 4;
  profile.composites = false;
  profile.allow_faults = false;
  profile.allow_model_variants = false;
  profile.allow_dynamics = false;
  oracle_detail::ModelBug bug;
  bug.crash_delay = 5;
  int detected = 0;
  for (int i = 0; i < 20; ++i) {
    TestCase tc = random_case(rng, profile);
    tc.dynamics.crash_count = 1;
    ASSERT_TRUE(case_valid(tc)) << describe(tc);
    if (!run_differential(tc, bug).ok) ++detected;
  }
  EXPECT_GT(detected, 10);
}

}  // namespace
}  // namespace latgossip
