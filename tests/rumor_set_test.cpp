// Unit tests for the rumor-set representation layer (util/rumor_set.h):
// SparseRumorSet must be observationally identical to the dense Bitset
// reference through every concept operation, including
// the exact OrDelta accounting the protocols' incremental cardinality
// counters depend on.

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/rumor_set.h"
#include "util/snapshot.h"

namespace latgossip {
namespace {

template <typename R>
class RumorSetRepTest : public ::testing::Test {};

using AltReps = ::testing::Types<SparseRumorSet>;
TYPED_TEST_SUITE(RumorSetRepTest, AltReps);

TYPED_TEST(RumorSetRepTest, EmptyAndSingleton) {
  TypeParam r(10);
  EXPECT_EQ(r.size(), 10u);
  EXPECT_EQ(r.count(), 0u);
  EXPECT_FALSE(r.all());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(r.test(i));
  r.set(3);
  EXPECT_TRUE(r.test(3));
  EXPECT_FALSE(r.test(4));
  EXPECT_EQ(r.count(), 1u);
  r.set(3);  // idempotent
  EXPECT_EQ(r.count(), 1u);
  EXPECT_THROW(r.test(10), std::out_of_range);
  EXPECT_THROW(r.set(10), std::out_of_range);
}

TYPED_TEST(RumorSetRepTest, ClearAndReinit) {
  TypeParam r(8);
  r.set(0);
  r.set(7);
  r.clear();
  EXPECT_EQ(r.count(), 0u);
  EXPECT_FALSE(r.test(0));
  r.reinit(4);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.count(), 0u);
  r.set(2);
  EXPECT_TRUE(r.test(2));
}

TYPED_TEST(RumorSetRepTest, OrDeltaAccounting) {
  TypeParam a(16), b(16);
  a.set(1);
  a.set(5);
  b.set(5);
  b.set(9);
  const auto d1 = a.or_assign_changed(b);
  EXPECT_TRUE(d1.changed);
  EXPECT_EQ(d1.added, 1u);
  EXPECT_EQ(a.count(), 3u);
  const auto d2 = a.or_assign_changed(b);  // subset: no change
  EXPECT_FALSE(d2.changed);
  EXPECT_EQ(d2.added, 0u);
  TypeParam c(8);
  EXPECT_THROW(a.or_assign_changed(c), std::invalid_argument);
}

TYPED_TEST(RumorSetRepTest, AssignAndCount) {
  TypeParam a(12), b(12);
  b.set(2);
  b.set(3);
  b.set(11);
  EXPECT_EQ(a.assign_and_count(b), 3u);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.test(11));
}

TYPED_TEST(RumorSetRepTest, EqualityIsMembershipBased) {
  TypeParam a(20), b(20);
  EXPECT_TRUE(a == b);
  a.set(4);
  EXPECT_FALSE(a == b);
  b.set(4);
  EXPECT_TRUE(a == b);
  TypeParam other_universe(21);
  EXPECT_FALSE(a == other_universe);
}

// Randomized differential against the dense reference: the same op
// sequence applied to TypeParam and Bitset must agree on membership,
// cardinality, and every OrDelta.
TYPED_TEST(RumorSetRepTest, RandomizedAgainstDenseReference) {
  constexpr std::size_t kN = 300;  // spans the sparse promote threshold
  Rng rng(0x5eed5e75ull);
  for (int trial = 0; trial < 20; ++trial) {
    TypeParam x(kN), y(kN);
    Bitset rx(kN), ry(kN);
    for (int op = 0; op < 400; ++op) {
      switch (rng.uniform(4)) {
        case 0: {
          const std::size_t i = rng.uniform(kN);
          x.set(i);
          rx.set(i);
          break;
        }
        case 1: {
          const std::size_t i = rng.uniform(kN);
          y.set(i);
          ry.set(i);
          break;
        }
        case 2: {
          const auto d = x.or_assign_changed(y);
          const auto rd = rx.or_assign_changed(ry);
          ASSERT_EQ(d.changed, rd.changed);
          ASSERT_EQ(d.added, rd.added);
          break;
        }
        case 3: {
          const std::size_t i = rng.uniform(kN);
          ASSERT_EQ(x.test(i), rx.test(i));
          break;
        }
      }
      ASSERT_EQ(x.count(), rx.count());
      ASSERT_EQ(y.count(), ry.count());
      ASSERT_EQ(x.all(), rx.all());
    }
    ASSERT_EQ(x.to_indices(), rx.to_indices());
    ASSERT_EQ(y.to_indices(), ry.to_indices());
  }
}

TYPED_TEST(RumorSetRepTest, FillToUniverse) {
  constexpr std::size_t kN = 130;
  TypeParam r(kN);
  for (std::size_t i = 0; i < kN; ++i) r.set(i);
  EXPECT_TRUE(r.all());
  EXPECT_EQ(r.count(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(r.test(i));
  // Unions into a full set are no-ops with zero delta.
  TypeParam other(kN);
  other.set(5);
  const auto d = r.or_assign_changed(other);
  EXPECT_FALSE(d.changed);
  EXPECT_EQ(d.added, 0u);
}

TYPED_TEST(RumorSetRepTest, OwnIdRumorSets) {
  const auto sets = own_id_rumor_sets<TypeParam>(6);
  ASSERT_EQ(sets.size(), 6u);
  for (std::size_t u = 0; u < 6; ++u) {
    EXPECT_EQ(sets[u].count(), 1u);
    EXPECT_TRUE(sets[u].test(u));
  }
}

// --- representation-specific edges -----------------------------------------

TEST(SparseRumorSet, PromotesPastThreshold) {
  constexpr std::size_t kN = 10000;
  const std::size_t threshold = SparseRumorSet::promote_threshold(kN);
  SparseRumorSet s(kN);
  Bitset ref(kN);
  for (std::size_t i = 0; i < threshold; ++i) {
    s.set(i * 3 % kN);  // distinct while 3 * threshold < kN
    ref.set(i * 3 % kN);
  }
  EXPECT_TRUE(s.is_sparse());  // exactly at the threshold: still sparse
  s.set(9999);                 // one past it: promotes
  ref.set(9999);
  EXPECT_FALSE(s.is_sparse());
  EXPECT_EQ(s.count(), ref.count());
  EXPECT_EQ(s.to_indices(), ref.to_indices());
  // Dense instance keeps behaving correctly, and mixed-mode union and
  // equality (dense vs sparse operand) agree with the reference.
  SparseRumorSet t(kN);
  t.set(1);
  t.set(9998);
  Bitset tref(kN);
  tref.set(1);
  tref.set(9998);
  const auto d = s.or_assign_changed(t);
  const auto rd = ref.or_assign_changed(tref);
  EXPECT_EQ(d.added, rd.added);
  EXPECT_EQ(s.count(), ref.count());
  EXPECT_TRUE(s == s);
  s.reinit(kN);
  EXPECT_TRUE(s.is_sparse());  // reinit drops back to sparse mode
}

TEST(SparseRumorSet, SparseAbsorbsDenseOperand) {
  constexpr std::size_t kN = 10000;
  SparseRumorSet dense_side(kN);
  for (std::size_t i = 0; i < kN / 2; ++i) dense_side.set(i);
  ASSERT_FALSE(dense_side.is_sparse());
  SparseRumorSet sparse_side(kN);
  sparse_side.set(123);
  sparse_side.set(7777);
  const auto d = sparse_side.or_assign_changed(dense_side);
  EXPECT_EQ(d.added, kN / 2 - 1);  // 123 already present
  EXPECT_FALSE(sparse_side.is_sparse());
  EXPECT_TRUE(sparse_side.test(7777));
  EXPECT_TRUE(sparse_side.test(0));
}

// --- single-source gossip under both representations -----------------------

template <RumorSetRep R>
struct GossipRun {
  SimResult result;
  std::vector<R> sets;
};

/// Single-source push-pull gossip in which only the source starts with a
/// rumor, so no node's set ever holds more than that one element: the
/// regime where a sparse set stays one word per node at 10^6 nodes and
/// the dense layout needs n^2/8 bytes.
template <RumorSetRep R>
GossipRun<R> single_source_gossip(const WeightedGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<R> rumors(n, R(n));
  rumors[0].set(0);
  const NetworkView view(g, false);
  BasicPushPullGossip<R> proto(view, GossipGoal::kSingleSource, 0,
                               std::move(rumors), Rng(7));
  EventRecorder recorder;
  SimOptions opts;
  opts.recorder = &recorder;
  GossipRun<R> run;
  run.result = run_gossip(g, proto, opts);
  run.result.fingerprint = recorder.fingerprint();
  run.sets = proto.take_rumors();
  return run;
}

TEST(SparseRumorSet, SingleSourceGossipMatchesDense) {
  WeightedGraph g = make_random_regular_streaming(8192, 8, 1);
  Rng lat_rng(1);
  assign_random_uniform_latency(g, 1, 8, lat_rng);
  const GossipRun<Bitset> dense = single_source_gossip<Bitset>(g);
  const GossipRun<SparseRumorSet> sparse =
      single_source_gossip<SparseRumorSet>(g);
  ASSERT_TRUE(sparse.result.completed);
  EXPECT_NE(sparse.result.fingerprint, 0u);
  EXPECT_EQ(sparse.result, dense.result);
  ASSERT_EQ(sparse.sets.size(), g.num_nodes());
  std::size_t promoted = 0;
  for (const SparseRumorSet& s : sparse.sets) promoted += !s.is_sparse();
  EXPECT_EQ(promoted, 0u);
}

// --- snapshot arena over alternative representations -----------------------

TYPED_TEST(RumorSetRepTest, SnapshotCacheRoundTrip) {
  constexpr std::size_t kN = 64;
  BasicSnapshotCache<TypeParam> cache(/*num_nodes=*/2, /*set_size=*/kN);
  TypeParam mine(kN);
  mine.set(0);
  mine.set(17);
  auto s1 = cache.shared(0, mine, mine.count());
  EXPECT_EQ(s1.count(), 2u);
  EXPECT_TRUE(s1.bits().test(17));
  // Unchanged source: the cache hands out the same block again.
  auto s2 = cache.shared(0, mine, mine.count());
  EXPECT_EQ(&s1.bits(), &s2.bits());
  // Mutate + invalidate: next capture sees the new contents, while the
  // outstanding refs still see the old immutable block.
  mine.set(42);
  cache.invalidate(0);
  auto s3 = cache.shared(0, mine, mine.count());
  EXPECT_EQ(s3.count(), 3u);
  EXPECT_TRUE(s3.bits().test(42));
  EXPECT_EQ(s1.count(), 2u);
  EXPECT_FALSE(s1.bits().test(42));
  // fresh() always deep-copies.
  auto f = cache.fresh(mine, mine.count());
  EXPECT_EQ(f.count(), 3u);
  EXPECT_TRUE(f.bits() == mine);
}

// --- runtime selection helpers ---------------------------------------------

TEST(RumorRepSelection, ParseAndNames) {
  EXPECT_EQ(parse_rumor_rep("dense"), RumorRep::kDense);
  EXPECT_EQ(parse_rumor_rep("sparse"), RumorRep::kSparse);
  EXPECT_EQ(parse_rumor_rep("auto"), RumorRep::kAuto);
  EXPECT_THROW(parse_rumor_rep("bitmap"), std::invalid_argument);
  EXPECT_THROW(parse_rumor_rep("count"), std::invalid_argument);
  EXPECT_EQ(rumor_rep_name(RumorRep::kSparse), "sparse");
}

TEST(RumorRepSelection, AutoResolvesByNodeCount) {
  EXPECT_EQ(resolve_rumor_rep(RumorRep::kAuto, 1000), RumorRep::kDense);
  EXPECT_EQ(resolve_rumor_rep(RumorRep::kAuto, kDenseNodeThreshold),
            RumorRep::kSparse);
  EXPECT_EQ(resolve_rumor_rep(RumorRep::kAuto, 1u << 20), RumorRep::kSparse);
  EXPECT_EQ(resolve_rumor_rep(RumorRep::kSparse, 10), RumorRep::kSparse);
}

struct Probe {
  template <RumorSetRep R>
  std::size_t operator()() const {
    R r(5);
    r.set(2);
    return r.count() + (std::is_same_v<R, Bitset> ? 100 : 0) +
           (std::is_same_v<R, SparseRumorSet> ? 200 : 0);
  }
};

TEST(RumorRepSelection, WithRumorRepBridges) {
  EXPECT_EQ(with_rumor_rep(RumorRep::kDense, 10, Probe{}), 101u);
  EXPECT_EQ(with_rumor_rep(RumorRep::kSparse, 10, Probe{}), 201u);
  EXPECT_EQ(with_rumor_rep(RumorRep::kAuto, 10, Probe{}), 101u);
  EXPECT_EQ(with_rumor_rep(RumorRep::kAuto, kDenseNodeThreshold, Probe{}),
            201u);
}

}  // namespace
}  // namespace latgossip
