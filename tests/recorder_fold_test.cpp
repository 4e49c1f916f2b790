// Differential tests of the recorder's fold. A folding recorder (the
// default) and a log-keeping one (EventLog::kKeep) fed the same event
// stream must answer every query alike, and both must agree with the
// whole log read the way the recorder read it before it folded: per-kind
// counts, size, max_round, the monotone flag, the fingerprint, and the
// histograms record_event_histograms derives.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/eid.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/tk_schedule.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/parallel.h"

namespace latgossip {
namespace {

/// A run or stream at least this long folds many thousand events
/// between queries.
constexpr std::size_t kManyEvents = std::size_t{1} << 12;

constexpr std::array<EventKind, kNumEventKinds> kKinds = {
    EventKind::kActivation, EventKind::kDelivery,   EventKind::kDrop,
    EventKind::kCrashDrop,  EventKind::kPhaseBegin, EventKind::kPhaseEnd};

/// record_event_histograms as it read the whole log before the recorder
/// folded its events, kept verbatim as the reference.
inline void reference_event_histograms(MetricsRegistry& metrics,
                                       const EventRecorder& rec) {
  Histogram& lat = metrics.histogram("delivery_latency");
  for (const Event& e : rec.events())
    if (e.kind() == EventKind::kDelivery)
      lat.observe(static_cast<std::uint64_t>(e.round() - e.start()));
  if (!rec.round_monotone() || rec.events().empty()) return;
  // Sweep: +1 at initiation, -1 at completion, over [0, max_round].
  const auto horizon = static_cast<std::size_t>(rec.max_round()) + 2;
  std::vector<std::int64_t> delta(horizon, 0);
  bool any = false;
  for (const Event& e : rec.events()) {
    if (e.kind() != EventKind::kDelivery && e.kind() != EventKind::kDrop &&
        e.kind() != EventKind::kCrashDrop)
      continue;
    ++delta[static_cast<std::size_t>(e.start())];
    --delta[static_cast<std::size_t>(e.round())];
    any = true;
  }
  if (!any) return;
  Histogram& depth = metrics.histogram("inflight_depth");
  std::int64_t inflight = 0;
  for (std::size_t r = 0; r + 1 < horizon; ++r) {
    inflight += delta[r];
    depth.observe(static_cast<std::uint64_t>(inflight));
  }
}

/// The stream statistics, read off the whole log with the per-event
/// packing the fingerprint has always used.
struct LogSummary {
  std::array<std::size_t, kNumEventKinds> counts{};
  Round max_round = 0;
  bool monotone = true;
  std::uint64_t fingerprint = 0;
};

LogSummary summarize(const EventRecorder& log) {
  LogSummary s;
  Fingerprint fp;
  Round last = 0;
  for (const Event& e : log.events()) {
    ++s.counts[static_cast<std::size_t>(e.kind())];
    s.monotone = s.monotone && e.round() >= last;
    last = e.round();
    if (e.round() > s.max_round) s.max_round = e.round();
    fp.add(fp_hash3(
        (static_cast<std::uint64_t>(e.round()) << 3) |
            static_cast<std::uint64_t>(e.kind()),
        (static_cast<std::uint64_t>(e.a()) << 32) | e.b(),
        (static_cast<std::uint64_t>(e.edge()) << 32) |
            static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(e.start()))));
  }
  s.fingerprint = fp.digest();
  return s;
}

/// `fold` (folding) and `log` (log-keeping), fed the same stream, answer
/// every query as the reference reading of the log does.
void expect_same(const EventRecorder& fold, const EventRecorder& log) {
  ASSERT_THROW(fold.events(), std::logic_error);
  const LogSummary ref = summarize(log);
  EXPECT_EQ(log.size(), log.events().size());
  EXPECT_EQ(fold.size(), log.size());
  EXPECT_EQ(fold.empty(), log.empty());
  for (const EventKind k : kKinds) {
    EXPECT_EQ(fold.count(k), ref.counts[static_cast<std::size_t>(k)]);
    EXPECT_EQ(log.count(k), ref.counts[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(fold.max_round(), ref.max_round);
  EXPECT_EQ(log.max_round(), ref.max_round);
  EXPECT_EQ(fold.round_monotone(), ref.monotone);
  EXPECT_EQ(log.round_monotone(), ref.monotone);
  EXPECT_EQ(fold.fingerprint(), ref.fingerprint);
  EXPECT_EQ(log.fingerprint(), ref.fingerprint);

  MetricsRegistry folded, logged, reference;
  record_event_histograms(folded, fold);
  record_event_histograms(logged, log);
  reference_event_histograms(reference, log);
  EXPECT_EQ(metrics_json(folded), metrics_json(reference));
  EXPECT_EQ(metrics_json(logged), metrics_json(reference));
}

WeightedGraph regular_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph g = make_random_regular(n, 8, rng);
  assign_random_uniform_latency(g, 1, 8, rng);
  return g;
}

/// One seeded push-pull broadcast of `g` into `rec`.
SimResult broadcast(const WeightedGraph& g, EventRecorder& rec,
                    DynamicPlan* plan = nullptr,
                    Round max_rounds = 1'000'000) {
  const NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(11));
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = max_rounds;
  opts.dynamics = plan;
  return run_gossip(g, proto, opts);
}

/// `run(rec)` into `fold` and into a log-keeping recorder: both runs
/// return the same result, and the two recorders answer alike.
template <typename Run>
SimResult expect_fold_matches_log(EventRecorder& fold, Run run) {
  EventRecorder log(EventLog::kKeep);
  const SimResult folded = run(fold);
  EXPECT_EQ(folded, run(log));
  expect_same(fold, log);
  return folded;
}

/// A seeded push-pull broadcast of `g` under `opts`, as a run for
/// expect_fold_matches_log.
auto broadcast_under(const WeightedGraph& g, SimOptions opts) {
  return [&g, opts](EventRecorder& rec) mutable {
    const NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(11));
    opts.recorder = &rec;
    return run_gossip(g, proto, opts);
  };
}

TEST(RecorderFold, PushPullRunOfManyBlocks) {
  const WeightedGraph g = regular_graph(1024, 3);
  EventRecorder fold;
  EventRecorder log(EventLog::kKeep);
  EXPECT_EQ(broadcast(g, fold), broadcast(g, log));
  ASSERT_GT(fold.size(), 3 * kManyEvents);
  EXPECT_TRUE(fold.round_monotone());
  expect_same(fold, log);
  // The fold's own storage is a delta per round.
  EXPECT_LE(fold.reserved_bytes(),
            2 * (static_cast<std::size_t>(fold.max_round()) + 1) *
                sizeof(std::int64_t));
}

TEST(RecorderFold, LossyRunWithCrashesRecordsBothDropKinds) {
  const WeightedGraph g = regular_graph(512, 5);
  DynamicSpec spec;
  spec.drop_prob = 0.2;
  spec.fault_seed = 9;
  spec.crash_count = 40;
  spec.crash_round = 4;
  spec.crash_spare = 0;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
  EventRecorder fold;
  EventRecorder log(EventLog::kKeep);
  EXPECT_EQ(broadcast(g, fold, &plan, 200), broadcast(g, log, &plan, 200));
  EXPECT_GT(fold.count(EventKind::kDrop), 0u);
  EXPECT_GT(fold.count(EventKind::kCrashDrop), 0u);
  ASSERT_GT(fold.size(), 3 * kManyEvents);
  expect_same(fold, log);
}

TEST(RecorderFold, EidRunWithPhasesIsNonMonotone) {
  Rng grng(7);
  WeightedGraph g = make_erdos_renyi(48, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  const auto run = [&](EventRecorder& rec) {
    MetricsRegistry metrics;
    CompositeContext ctx(&rec, &metrics);
    Rng rng(5);
    return run_general_eid(g, 0, rng, 1, &ctx).sim;
  };
  EventRecorder fold;
  EventRecorder log(EventLog::kKeep);
  EXPECT_EQ(run(fold), run(log));
  EXPECT_FALSE(fold.round_monotone());
  EXPECT_GT(fold.count(EventKind::kPhaseBegin), 0u);
  EXPECT_GT(fold.size(), kManyEvents);
  EXPECT_FALSE(fold.inflight_depth().has_value());
  expect_same(fold, log);
}

TEST(RecorderFold, QueriesInterleaveWithAppendsAcrossBlocks) {
  // A synthetic stream queried at fixed points thousands of events
  // apart, and at random points between them; it turns non-monotone
  // two-thirds of the way through, after which the in-flight histogram
  // is gone.
  constexpr std::size_t kSpan = kManyEvents;
  const std::size_t total = 5 * kSpan + 123;
  std::vector<std::size_t> checkpoints = {1, kSpan - 1, kSpan, kSpan + 1,
                                          2 * kSpan, 3 * kSpan + 7, total};
  Rng pick(21);
  for (int i = 0; i < 12; ++i) checkpoints.push_back(1 + pick.uniform(total));
  std::sort(checkpoints.begin(), checkpoints.end());

  EventRecorder fold;
  EventRecorder log(EventLog::kKeep);
  Rng rng(4);
  Round round = 0;
  std::size_t next = 0;
  for (std::size_t i = 1; i <= total; ++i) {
    if (i == 2 * total / 3) round = 0;  // a new phase restarts the rounds
    if (rng.uniform(8) == 0) ++round;
    const auto a = static_cast<NodeId>(rng.uniform(64));
    const auto b = static_cast<NodeId>(rng.uniform(64));
    const auto edge = static_cast<EdgeId>(rng.uniform(256));
    const Round start = round - static_cast<Round>(rng.uniform(
                                    static_cast<std::uint64_t>(round) + 1));
    switch (rng.uniform(4)) {
      case 0:
        fold.record_activation(a, b, edge, round);
        log.record_activation(a, b, edge, round);
        break;
      case 1:
        fold.record_delivery(a, b, edge, start, round);
        log.record_delivery(a, b, edge, start, round);
        break;
      default: {
        const bool crash = rng.uniform(2) == 0;
        fold.record_drop(a, b, edge, start, round, crash);
        log.record_drop(a, b, edge, start, round, crash);
        break;
      }
    }
    while (next < checkpoints.size() && checkpoints[next] == i) {
      SCOPED_TRACE("after " + std::to_string(i) + " events");
      expect_same(fold, log);
      ++next;
    }
  }
  EXPECT_FALSE(fold.round_monotone());
}

TEST(RecorderFold, EventsThrowsOnAFoldingRecorder) {
  EventRecorder fold;
  fold.record_activation(0, 1, 0, 0);
  EXPECT_THROW(fold.events(), std::logic_error);
  EXPECT_THROW(activations_to_csv(fold), std::logic_error);
  EXPECT_THROW(to_chrome_trace_json(fold), std::logic_error);
  EventRecorder log(EventLog::kKeep);
  log.record_activation(0, 1, 0, 0);
  EXPECT_EQ(log.events().size(), 1u);
}

TEST(RecorderFold, ClearThenReuse) {
  const WeightedGraph big = regular_graph(1024, 3);
  const WeightedGraph small = regular_graph(64, 8);
  EventRecorder fold;
  broadcast(big, fold);
  ASSERT_GT(fold.size(), 3 * kManyEvents);
  const std::size_t delta_bytes = fold.reserved_bytes();
  fold.clear();
  const EventRecorder fresh;
  EXPECT_EQ(fold.size(), 0u);
  EXPECT_EQ(fold.activations(), 0u);
  EXPECT_EQ(fold.max_round(), 0);
  EXPECT_TRUE(fold.round_monotone());
  EXPECT_EQ(fold.fingerprint(), fresh.fingerprint());
  EXPECT_EQ(fold.delivery_latency().count(), 0u);
  EXPECT_FALSE(fold.inflight_depth().has_value());
  // The deltas keep their storage for the next trial.
  EXPECT_EQ(fold.reserved_bytes(), delta_bytes);

  EventRecorder log(EventLog::kKeep);
  EXPECT_EQ(broadcast(small, fold), broadcast(small, log));
  expect_same(fold, log);
}

TEST(RecorderFold, ClearReleasesTheDeltasOfAVeryLongRun) {
  // A few deliveries spread over 2^20 rounds (one very slow link) need
  // a delta per round; a reused recorder must not keep them.
  EventRecorder fold;
  const Round last = Round{1} << 20;
  for (Round r = 0; r <= last; r += last / 8)
    fold.record_delivery(1, 0, 0, r / 2, r);
  ASSERT_TRUE(fold.inflight_depth().has_value());
  EXPECT_GE(fold.reserved_bytes(),
            static_cast<std::size_t>(last) * sizeof(std::int64_t));
  fold.clear();
  EXPECT_EQ(fold.reserved_bytes(), 0u);
  // A sweep of short runs keeps its deltas from run to run.
  fold.record_delivery(1, 0, 0, 0, 100);
  ASSERT_TRUE(fold.inflight_depth().has_value());
  const std::size_t short_run = fold.reserved_bytes();
  fold.clear();
  EXPECT_EQ(fold.reserved_bytes(), short_run);
}

TEST(RecorderFold, PoolWorkersFoldAsOneLogKeepingRun) {
  // Each worker folds its trials in one thread_local recorder, as the
  // run executor does; every trial must match a fresh log-keeping run.
  const WeightedGraph g = regular_graph(256, 6);
  constexpr std::size_t kTrials = 12;
  constexpr std::uint64_t kSeed = 77;
  const auto run = [&](EventRecorder& rec, Rng rng) {
    const NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    SimOptions opts;
    opts.recorder = &rec;
    opts.max_rounds = 1'000'000;
    SimResult r = run_gossip(g, proto, opts);
    r.fingerprint = rec.fingerprint();
    return r;
  };
  const auto snapshot = [](const SimResult& r, const EventRecorder& rec) {
    MetricsRegistry metrics;
    record_sim_result(metrics, r);
    record_event_histograms(metrics, rec);
    return metrics_json(metrics);
  };
  std::vector<std::string> pooled(kTrials);
  std::vector<std::size_t> sizes(kTrials);
  const TrialFn trial = [&](std::size_t t, Rng rng) {
    thread_local EventRecorder recorder;
    recorder.clear();
    const SimResult r = run(recorder, rng);
    pooled[t] = snapshot(r, recorder);
    sizes[t] = recorder.size();
    return r;
  };
  const TrialAggregate agg = run_trials(kTrials, 2, kSeed, trial);
  for (std::size_t t = 0; t < kTrials; ++t) {
    EventRecorder log(EventLog::kKeep);
    const SimResult r = run(log, Rng(trial_seed(kSeed, t)));
    EXPECT_EQ(agg.trials[t], r) << "trial " << t;
    EXPECT_EQ(pooled[t], snapshot(r, log)) << "trial " << t;
    EXPECT_EQ(sizes[t], log.size()) << "trial " << t;
  }
}

// One case per path by which the engine's bucket fold receives events.

TEST(RecorderFold, JitterPastTheRingGrowsIt) {
  const WeightedGraph g = regular_graph(256, 12);
  DynamicSpec spec;
  spec.jitter_spread = 16;
  spec.jitter_seed = 5;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_TRUE(r.completed);
  // An exchange outlasted the first ring of max_latency + 1 buckets.
  EXPECT_GT(fold.delivery_latency().max(),
            static_cast<std::uint64_t>(g.max_latency()) + 1);
}

TEST(RecorderFold, ChurnRejoinWithReset) {
  const WeightedGraph g = regular_graph(256, 13);
  DynamicSpec spec;
  spec.churn_prob = 0.5;
  spec.churn_window = 12;
  spec.churn_absence = 6;
  spec.churn_mode = 1;  // a returning node starts over
  spec.seed = 3;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  EventRecorder fold;
  expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_GT(fold.count(EventKind::kCrashDrop), 0u);
}

TEST(RecorderFold, Drift) {
  const WeightedGraph g = regular_graph(256, 14);
  DynamicSpec spec;
  spec.drift_step = 64;
  spec.drift_bound = 4096;
  spec.seed = 5;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_TRUE(r.completed);
}

TEST(RecorderFold, Adversary) {
  const WeightedGraph g = regular_graph(256, 15);
  DynamicSpec spec;
  spec.adv_slow = 4096;  // cut-crossing exchanges take 4x as long
  spec.adv_source = 0;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
  SimOptions opts;
  opts.dynamics = &plan;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_TRUE(r.completed);
  EXPECT_GT(fold.delivery_latency().max(),
            static_cast<std::uint64_t>(g.max_latency()));
}

TEST(RecorderFold, Blocking) {
  const WeightedGraph g = regular_graph(256, 16);
  SimOptions opts;
  opts.blocking = true;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_TRUE(r.completed);
}

TEST(RecorderFold, InDegreeCapRejectsInitiations) {
  const WeightedGraph g = regular_graph(256, 17);
  SimOptions opts;
  opts.max_incoming_per_round = 1;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_GT(r.exchanges_rejected, 0u);
  EXPECT_EQ(fold.activations(), r.activations);
}

TEST(RecorderFold, RoundCapLeavesExchangesInFlight) {
  const WeightedGraph g = regular_graph(256, 18);
  SimOptions opts;
  opts.max_rounds = 4;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, broadcast_under(g, opts));
  EXPECT_FALSE(r.completed);
  // Every activation is folded, landed or not.
  EXPECT_EQ(fold.activations(), r.activations);
  EXPECT_GT(2 * fold.activations(), fold.deliveries() + fold.drops());
}

TEST(RecorderFold, IdleStop) {
  Rng rng(7);
  WeightedGraph g = make_erdos_renyi(64, 0.15, rng);
  assign_random_uniform_latency(g, 1, 6, rng);
  DirectedGraph overlay(g.num_nodes());
  for (const Edge& e : g.edges()) {
    overlay.add_arc(e.u, e.v, e.latency);
    overlay.add_arc(e.v, e.u, e.latency);
  }
  const Latency k = 6;
  const NetworkView view(g, true);
  Round budget = 0;
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, [&](EventRecorder& rec) {
    RRBroadcast proto(view, overlay, k, own_id_rumors(g.num_nodes()));
    budget = proto.budget();
    SimOptions opts;
    opts.recorder = &rec;
    return run_gossip(g, proto, opts);
  });
  // The run went idle before RR broadcast's budget + k timer.
  EXPECT_LT(r.rounds, budget + k);
  EXPECT_TRUE(r.completed);
}

TEST(RecorderFold, TkScheduleWithPhases) {
  Rng rng(9);
  WeightedGraph g = make_erdos_renyi(40, 0.2, rng);
  assign_random_uniform_latency(g, 1, 4, rng);
  const auto run = [&](EventRecorder& rec) {
    MetricsRegistry metrics;
    CompositeContext ctx(&rec, &metrics);
    return run_tk_schedule(g, 4, own_id_rumors(g.num_nodes()), &ctx).sim;
  };
  EventRecorder fold;
  expect_fold_matches_log(fold, run);
  EXPECT_GT(fold.count(EventKind::kPhaseBegin), 0u);
  EXPECT_GT(fold.deliveries(), 0u);
}

TEST(RecorderFold, RumorSetPayload) {
  // Snapshot handles make this record larger than a boolean one.
  static_assert(sizeof(detail::EngineDelivery<PushPullGossip::Payload>) >
                sizeof(detail::EngineDelivery<bool>));
  const WeightedGraph g = regular_graph(128, 19);
  EventRecorder fold;
  const SimResult r = expect_fold_matches_log(fold, [&](EventRecorder& rec) {
    const NetworkView view(g, false);
    PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                         own_id_rumors(g.num_nodes()), Rng(3));
    SimOptions opts;
    opts.recorder = &rec;
    return run_gossip(g, proto, opts);
  });
  EXPECT_TRUE(r.completed);
}

/// Push-pull broadcast whose deliveries throw from round `fail_at` on.
class FailingBroadcast : public PushPullBroadcast {
 public:
  FailingBroadcast(const NetworkView& view, Round fail_at)
      : PushPullBroadcast(view, 0, Rng(11)), fail_at_(fail_at) {}
  void deliver(NodeId u, NodeId peer, Payload payload, EdgeId e, Round start,
               Round now, Leg leg) {
    if (now >= fail_at_) throw std::runtime_error("delivery failed");
    PushPullBroadcast::deliver(u, peer, payload, e, start, now, leg);
  }

 private:
  Round fail_at_;
};

TEST(RecorderFold, ARunThatThrowsKeepsEveryActivation) {
  // The recorder holds every activation the run made and the legs of
  // every bucket that drained in full: the legs of round fail_at's
  // bucket, which threw while draining, are not recorded.
  const WeightedGraph g = regular_graph(256, 20);
  const NetworkView view(g, false);
  constexpr Round kFailAt = 5;
  EventRecorder fold;
  EventRecorder log(EventLog::kKeep);
  for (EventRecorder* rec : {&fold, &log}) {
    FailingBroadcast proto(view, kFailAt);
    SimOptions opts;
    opts.recorder = rec;
    EXPECT_THROW(run_gossip(g, proto, opts), std::runtime_error);
  }
  expect_same(fold, log);
  const auto capped = [&](Round max_rounds) {
    EventRecorder rec;
    SimOptions opts;
    opts.max_rounds = max_rounds;
    return broadcast_under(g, opts)(rec);
  };
  EXPECT_EQ(fold.activations(), capped(kFailAt).activations);
  EXPECT_EQ(fold.deliveries(), capped(kFailAt - 1).messages_delivered);
  EXPECT_GT(fold.deliveries(), 0u);
}

}  // namespace
}  // namespace latgossip
