// Tests for the deterministic parallel trial runner: bit-identical
// aggregates across thread counts, seed-splitting independence, and
// error propagation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/parallel.h"

namespace latgossip {
namespace {

WeightedGraph test_graph() {
  Rng grng(7);
  auto g = make_erdos_renyi(64, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  return g;
}

TrialFn push_pull_trial(const WeightedGraph& g) {
  return [&g](std::size_t, Rng rng) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    return run_gossip(g, proto, opts);
  };
}

TEST(RunTrials, BitIdenticalAcrossThreadCounts) {
  const WeightedGraph g = test_graph();
  const auto fn = push_pull_trial(g);
  const TrialAggregate one = run_trials(24, 1, 42, fn);
  const TrialAggregate two = run_trials(24, 2, 42, fn);
  const TrialAggregate eight = run_trials(24, 8, 42, fn);

  ASSERT_EQ(one.trials.size(), 24u);
  EXPECT_EQ(one.trials, two.trials);
  EXPECT_EQ(one.trials, eight.trials);
  for (const TrialAggregate* other : {&two, &eight}) {
    EXPECT_EQ(one.num_completed, other->num_completed);
    // Aggregation runs in trial order after the pool drains, so even the
    // floating-point accumulators match bit for bit.
    EXPECT_EQ(one.rounds.mean(), other->rounds.mean());
    EXPECT_EQ(one.rounds.variance(), other->rounds.variance());
    EXPECT_EQ(one.rounds.min(), other->rounds.min());
    EXPECT_EQ(one.rounds.max(), other->rounds.max());
    EXPECT_EQ(one.activations.mean(), other->activations.mean());
    EXPECT_EQ(one.payload_bits.mean(), other->payload_bits.mean());
    EXPECT_EQ(one.messages_delivered.mean(),
              other->messages_delivered.mean());
  }
  EXPECT_TRUE(one.all_completed());
}

TEST(RunTrials, RecordingFingerprintsIdenticalAcrossThreadCounts) {
  // With a per-trial recorder attached (dynamic-hook path), the merged
  // event-stream digest must still be bit-identical for any worker
  // count — the event streams themselves are deterministic per trial.
  const WeightedGraph g = test_graph();
  const TrialFn fn = [&g](std::size_t, Rng rng) {
    EventRecorder rec;
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    SimOptions opts;
    opts.recorder = &rec;
    opts.max_rounds = 1'000'000;
    SimResult r = run_gossip(g, proto, opts);
    r.fingerprint = rec.fingerprint();
    return r;
  };
  const TrialAggregate one = run_trials(16, 1, 42, fn);
  const TrialAggregate two = run_trials(16, 2, 42, fn);
  const TrialAggregate eight = run_trials(16, 8, 42, fn);
  EXPECT_NE(one.fingerprint, 0u);
  EXPECT_EQ(one.fingerprint, two.fingerprint);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
  EXPECT_EQ(one.trials, two.trials);
  EXPECT_EQ(one.trials, eight.trials);
  // And the aggregate really is the commutative merge of the trials.
  std::uint64_t manual = 0;
  for (const SimResult& r : one.trials)
    manual = fingerprint_merge_digests(manual, r.fingerprint);
  EXPECT_EQ(manual, one.fingerprint);
}

TEST(RunTrials, TrialsSeeIndependentSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t t = 0; t < 1000; ++t) seeds.insert(trial_seed(99, t));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
  // Trial 0 must not leak the batch seed through unmixed.
  EXPECT_NE(trial_seed(123, 0), 123u);
}

TEST(RunTrials, SeedChangesResults) {
  const WeightedGraph g = test_graph();
  const auto fn = push_pull_trial(g);
  const TrialAggregate a = run_trials(8, 2, 1, fn);
  const TrialAggregate b = run_trials(8, 2, 2, fn);
  EXPECT_NE(a.trials, b.trials);
}

TEST(RunTrials, ZeroTrialsIsEmpty) {
  const TrialAggregate agg =
      run_trials(0, 4, 7, [](std::size_t, Rng) { return SimResult{}; });
  EXPECT_TRUE(agg.trials.empty());
  EXPECT_EQ(agg.rounds.count(), 0u);
  EXPECT_TRUE(agg.all_completed());
}

TEST(RunTrials, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  const WeightedGraph g = test_graph();
  const TrialAggregate hw = run_trials(4, 0, 5, push_pull_trial(g));
  const TrialAggregate one = run_trials(4, 1, 5, push_pull_trial(g));
  EXPECT_EQ(hw.trials, one.trials);
}

TEST(RunTrials, PropagatesTrialExceptions) {
  auto fn = [](std::size_t t, Rng) -> SimResult {
    if (t == 3) throw std::runtime_error("trial blew up");
    return SimResult{};
  };
  EXPECT_THROW(run_trials(8, 4, 11, fn), std::runtime_error);
  EXPECT_THROW(run_trials(8, 1, 11, fn), std::runtime_error);
}

TEST(RunTrials, AggregatesMatchManualLoop) {
  const WeightedGraph g = test_graph();
  const auto fn = push_pull_trial(g);
  const TrialAggregate agg = run_trials(6, 3, 17, fn);
  Accumulator manual;
  for (std::size_t t = 0; t < 6; ++t) {
    const SimResult r = fn(t, Rng(trial_seed(17, t)));
    EXPECT_EQ(r, agg.trials[t]);
    manual.add(static_cast<double>(r.rounds));
  }
  EXPECT_EQ(manual.mean(), agg.rounds.mean());
  EXPECT_EQ(manual.stddev(), agg.rounds.stddev());
}

TEST(RunTrials, ManifestAppendsOneRecordPerTrialInOrder) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "latgossip_parallel_test_manifest.jsonl")
                               .string();
  std::filesystem::remove(path);
  const WeightedGraph g = test_graph();
  ManifestSpec manifest;
  manifest.path = path;
  manifest.info.tool = "parallel_test";
  // Two batches on one file: the second appends after the first.
  const TrialAggregate first =
      run_trials(3, 2, 17, push_pull_trial(g), &manifest);
  run_trials(2, 1, 23, push_pull_trial(g), &manifest);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t t = i < 3 ? i : i - 3;
    const std::uint64_t seed = trial_seed(i < 3 ? 17 : 23, t);
    EXPECT_NE(lines[i].find("\"trial\":" + std::to_string(t) +
                            ",\"trial_seed\":" + std::to_string(seed) + ","),
              std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[1].find("\"rounds\":" +
                          std::to_string(first.trials[1].rounds) + ","),
            std::string::npos)
      << lines[1];
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace latgossip
