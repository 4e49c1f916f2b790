// Shrinker behavior, including the end-to-end self-test the check
// framework is judged by: plant a known off-by-one model bug in the
// oracle (oracle_detail::ModelBug — a test-only knob), let the
// differential checker catch the divergence on a random case, and
// assert the shrinker reduces the counterexample to a handful of nodes
// while keeping the divergence alive.

#include <sstream>

#include <gtest/gtest.h>

#include "check/case_gen.h"
#include "check/differential.h"
#include "check/shrink.h"

namespace latgossip {
namespace {

// Pure-structure predicate: shrinking must reach the minimal case the
// predicate admits (5 nodes, one latency-4 edge) without ever proposing
// an invalid candidate (case_valid gates every acceptance).
TEST(Shrink, MinimizesStructuralPredicate) {
  Rng rng(11);
  CaseProfile profile;
  profile.min_nodes = 8;
  profile.max_nodes = 14;
  auto fails = [](const TestCase& tc) {
    if (tc.num_nodes < 5) return false;
    for (const Edge& e : tc.edges)
      if (e.latency >= 4) return true;
    return false;
  };
  int shrunk_runs = 0;
  for (int i = 0; i < 40 && shrunk_runs < 5; ++i) {
    const TestCase tc = random_case(rng, profile);
    if (!fails(tc)) continue;
    ShrinkStats stats;
    const TestCase small = shrink_case(tc, fails, &stats);
    ++shrunk_runs;
    EXPECT_TRUE(case_valid(small));
    EXPECT_TRUE(fails(small));
    EXPECT_EQ(small.num_nodes, 5u);
    // Minimal connected graph on 5 nodes: a 4-edge tree, exactly one of
    // them carrying the latency the predicate demands.
    EXPECT_EQ(small.edges.size(), 4u);
    EXPECT_GT(stats.accepted, 0u);
  }
  EXPECT_EQ(shrunk_runs, 5);
}

// The headline self-test: inject latency_bias = +1 into the oracle and
// shrink the resulting engine/oracle divergence. The minimal divergent
// case is a single informed pair exchanging once, so the shrinker must
// land at <= 6 nodes (it reaches 2 in practice).
TEST(Shrink, ReducesInjectedOracleBugToMinimalCounterexample) {
  oracle_detail::ModelBug bug;
  bug.latency_bias = 1;
  auto fails = [&bug](const TestCase& tc) {
    return !run_differential(tc, bug).ok;
  };

  Rng rng(0x5eed);
  CaseProfile profile;
  profile.min_nodes = 8;
  profile.max_nodes = 14;
  profile.composites = false;  // ModelBug only reaches the direct oracle

  TestCase failing;
  bool found = false;
  for (int i = 0; i < 50 && !found; ++i) {
    const TestCase tc = random_case(rng, profile);
    if (fails(tc)) {
      failing = tc;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no divergent case within 50 draws";

  ShrinkStats stats;
  const TestCase small = shrink_case(failing, fails, &stats);
  EXPECT_TRUE(case_valid(small));
  EXPECT_TRUE(fails(small)) << "shrinker lost the failure";
  EXPECT_LE(small.num_nodes, 6u) << describe(small);
  EXPECT_LE(small.edges.size(), 6u) << describe(small);
  EXPECT_LT(small.num_nodes, failing.num_nodes);
  EXPECT_GT(stats.accepted, 0u);
}

// The dropped-leg bug shrinks just as far.
TEST(Shrink, ReducesDroppedLegBug) {
  oracle_detail::ModelBug bug;
  bug.drop_initiator_leg = true;
  auto fails = [&bug](const TestCase& tc) {
    return !run_differential(tc, bug).ok;
  };

  Rng rng(0xfeed);
  CaseProfile profile;
  profile.min_nodes = 6;
  profile.max_nodes = 12;
  profile.composites = false;

  for (int i = 0; i < 50; ++i) {
    const TestCase tc = random_case(rng, profile);
    if (!fails(tc)) continue;
    const TestCase small = shrink_case(tc, fails);
    EXPECT_TRUE(fails(small));
    EXPECT_LE(small.num_nodes, 6u) << describe(small);
    return;
  }
  FAIL() << "no divergent case within 50 draws";
}

// A latency-biased case carries its ρ: both dumps print it, and the
// shrinker hands it on to the minimal case.
TEST(Shrink, KeepsBiasedRho) {
  Rng rng(5);
  CaseProfile profile;
  profile.composites = false;
  TestCase tc = random_case(rng, profile);
  while (tc.proto != CheckProto::kBiased || tc.rho == 0.0)
    tc = random_case(rng, profile);
  std::ostringstream rho;
  rho << "rho=" << tc.rho;
  EXPECT_NE(describe(tc).find(rho.str()), std::string::npos) << describe(tc);
  std::ostringstream dump;
  write_case(dump, tc);
  EXPECT_NE(dump.str().find(rho.str()), std::string::npos) << dump.str();

  const TestCase small = shrink_case(
      tc, [](const TestCase& c) { return c.num_nodes >= 3; });
  EXPECT_EQ(small.num_nodes, 3u);
  EXPECT_EQ(small.proto, CheckProto::kBiased);
  EXPECT_EQ(small.rho, tc.rho);
}

}  // namespace
}  // namespace latgossip
