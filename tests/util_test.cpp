// Unit tests for src/util: RNG, Bitset, statistics, tables, fitting, args.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/args.h"
#include "util/bitset.h"
#include "util/fit.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace latgossip {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, GoldenReferenceStream) {
  // Pinned output of xoshiro256** seeded via splitmix64(12345): any
  // change here silently breaks reproducibility of every recorded
  // experiment, so it must be deliberate.
  Rng r(12345);
  const std::uint64_t expected[] = {
      0xbe6a36374160d49bULL, 0x214aaa0637a688c6ULL, 0xf69d16de9954d388ULL,
      0x0c60048c4e96e033ULL, 0x8e2076aeed51c648ULL,
  };
  for (std::uint64_t want : expected) EXPECT_EQ(r(), want);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliMeanRoughlyP) {
  Rng rng(17);
  int hits = 0;
  const int trials = 50'000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, GeometricMeanRoughlyInverseP) {
  Rng rng(19);
  double total = 0.0;
  const int trials = 20'000;
  for (int i = 0; i < trials; ++i)
    total += static_cast<double>(rng.geometric(0.25));
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(total / trials, 3.0, 0.15);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleRejectsOversizedK) {
  Rng rng(31);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(37);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

// ------------------------------------------------------------- Bitset

TEST(Bitset, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.all());
}

TEST(Bitset, SetTestReset) {
  Bitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, OutOfRangeThrows) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), std::out_of_range);
  EXPECT_THROW((void)b.test(10), std::out_of_range);
}

TEST(Bitset, SetAllRespectsSize) {
  Bitset b(67);
  b.set_all();
  EXPECT_TRUE(b.all());
  EXPECT_EQ(b.count(), 67u);
}

TEST(Bitset, AllSetWordLevelFastPath) {
  // Sizes straddling word boundaries: empty, sub-word, exact word,
  // word + tail.
  EXPECT_TRUE(Bitset(0).all_set());
  for (std::size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
    Bitset b(n);
    EXPECT_FALSE(b.all_set());
    b.set_all();
    EXPECT_TRUE(b.all_set());
    EXPECT_EQ(b.all_set(), b.all());
    b.reset(n - 1);  // missing bit in the tail word
    EXPECT_FALSE(b.all_set());
    b.set(n - 1);
    if (n > 64) {
      b.reset(0);  // missing bit in a full word
      EXPECT_FALSE(b.all_set());
    }
  }
}

TEST(Bitset, UnionIntersectionDifference) {
  Bitset a(130), b(130);
  a.set(1);
  a.set(100);
  b.set(100);
  b.set(129);
  Bitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  Bitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(100));
  Bitset d = a;
  d -= b;
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(Bitset, SizeMismatchThrows) {
  Bitset a(10), b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a.or_assign_changed(b), std::invalid_argument);
  EXPECT_THROW(a.assign_and_count(b), std::invalid_argument);
}

TEST(Bitset, OrAssignChangedReportsAddedBits) {
  Bitset a(130), b(130);
  a.set(1);
  a.set(100);
  b.set(100);  // overlap: not newly added
  b.set(64);
  b.set(129);
  const Bitset::OrDelta d = a.or_assign_changed(b);
  EXPECT_TRUE(d.changed);
  EXPECT_EQ(d.added, 2u);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_TRUE(a.test(64));
  EXPECT_TRUE(a.test(129));
}

TEST(Bitset, OrAssignChangedNoopOnSubset) {
  Bitset a(130), b(130);
  a.set(7);
  a.set(128);
  b.set(7);
  const Bitset before = a;
  const Bitset::OrDelta d = a.or_assign_changed(b);
  EXPECT_FALSE(d.changed);
  EXPECT_EQ(d.added, 0u);
  EXPECT_TRUE(a == before);
  // Empty other is always a no-op.
  EXPECT_FALSE(a.or_assign_changed(Bitset(130)).changed);
}

TEST(Bitset, OrAssignChangedMatchesOrEquals) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Bitset a(200), b(200);
    for (int i = 0; i < 40; ++i) {
      a.set(rng.uniform(200));
      b.set(rng.uniform(200));
    }
    Bitset expect = a;
    expect |= b;
    const std::size_t before = a.count();
    const Bitset::OrDelta d = a.or_assign_changed(b);
    EXPECT_TRUE(a == expect);
    EXPECT_EQ(d.added, expect.count() - before);
    EXPECT_EQ(d.changed, expect.count() != before);
  }
}

TEST(Bitset, AssignAndCountCopiesAndCounts) {
  Bitset src(130);
  src.set(0);
  src.set(64);
  src.set(129);
  Bitset dst(130);
  dst.set(3);  // stale contents must be fully overwritten
  EXPECT_EQ(dst.assign_and_count(src), 3u);
  EXPECT_TRUE(dst == src);
  EXPECT_EQ(dst.assign_and_count(Bitset(130)), 0u);
  EXPECT_EQ(dst.count(), 0u);
}

TEST(Bitset, SubsetTest) {
  Bitset a(64), b(64);
  a.set(3);
  b.set(3);
  b.set(5);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
}

TEST(Bitset, FindNextIteration) {
  Bitset b(200);
  b.set(5);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(6), 64u);
  EXPECT_EQ(b.find_next(65), 199u);
  EXPECT_EQ(b.find_next(200), 200u);
  EXPECT_EQ(b.to_indices(), (std::vector<std::size_t>{5, 64, 199}));
}

TEST(Bitset, HashDistinguishesContents) {
  Bitset a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  b.reset(2);
  b.set(1);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Bitset, EqualityComparesSizeAndBits) {
  Bitset a(10), b(10), c(11);
  a.set(3);
  EXPECT_FALSE(a == b);
  b.set(3);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// -------------------------------------------------------------- stats

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, SummaryPercentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Stats, PercentileOfEmptyThrows) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, SummaryOfEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// --------------------------------------------------------------- fit

TEST(Fit, ExactLine) {
  const LinearFit f = linear_fit({1, 2, 3, 4}, {3, 5, 7, 9});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(Fit, LogLogRecoverExponent) {
  std::vector<double> x, y;
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // y = 3 x^2
  }
  const LinearFit f = loglog_fit(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(std::exp(f.intercept), 3.0, 1e-9);
}

TEST(Fit, RejectsDegenerateInput) {
  EXPECT_THROW(linear_fit({1}, {2}), std::invalid_argument);
  EXPECT_THROW(linear_fit({1, 1}, {2, 3}), std::invalid_argument);
  EXPECT_THROW(loglog_fit({1, -2}, {2, 3}), std::invalid_argument);
}

// -------------------------------------------------------------- table

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("b", std::size_t{42});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("1.500"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add(1, 2);
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

// --------------------------------------------------------------- args

TEST(Args, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog", "--n=10", "--name=x", "--flag", "pos"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 10);
  EXPECT_EQ(args.get("name", ""), "x");
  EXPECT_TRUE(args.get_bool("flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("flag"));
}

TEST(Args, NumericGettersAreStrict) {
  const char* argv[] = {"prog", "--source=1e2", "--trials=3x", "--p=0.1abc",
                        "--bare", "--empty=", "--big=99999999999999999999",
                        "--huge=1e999", "--nan=nan", "--neg=-5", "--x=0.25"};
  Args args(11, argv);
  const auto message = [](auto&& get) {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { args.get_int("source", 0); }),
            "--source: not an integer: '1e2'");
  EXPECT_EQ(message([&] { args.get_int("trials", 0); }),
            "--trials: not an integer: '3x'");
  EXPECT_EQ(message([&] { args.get_int("bare", 0); }),
            "--bare: not an integer: 'true'");
  EXPECT_EQ(message([&] { args.get_int("empty", 0); }),
            "--empty: not an integer: ''");
  EXPECT_EQ(message([&] { args.get_int("big", 0); }),
            "--big: out of range: '99999999999999999999'");
  EXPECT_EQ(message([&] { args.get_double("p", 0); }),
            "--p: not a number: '0.1abc'");
  EXPECT_EQ(message([&] { args.get_double("empty", 0); }),
            "--empty: not a number: ''");
  EXPECT_EQ(message([&] { args.get_double("huge", 0); }),
            "--huge: out of range: '1e999'");
  EXPECT_EQ(message([&] { args.get_double("nan", 0); }),
            "--nan: out of range: 'nan'");
  EXPECT_EQ(args.get_int("neg", 0), -5);
  EXPECT_EQ(args.get_double("x", 0), 0.25);
  EXPECT_EQ(args.get_double("neg", 0), -5.0);
  // The same parsers take the pieces of a packed value like --lat-range.
  EXPECT_EQ(parse_int_flag("lat-range", "8"), 8);
  EXPECT_EQ(message([&] { parse_int_flag("lat-range", "8x"); }),
            "--lat-range: not an integer: '8x'");
  EXPECT_EQ(message([&] { parse_double_flag("lat-twolevel", ""); }),
            "--lat-twolevel: not a number: ''");
}

TEST(Args, AllowOnlyCatchesTypos) {
  const char* argv[] = {"prog", "--typo=1"};
  Args args(2, argv);
  EXPECT_THROW(args.allow_only({"n", "seed"}), std::invalid_argument);
  EXPECT_NO_THROW(args.allow_only({"typo"}));
}

}  // namespace
}  // namespace latgossip
