// Tests for the persistent work-stealing trial pool (sim/pool.h) and
// the per-thread reusable trial workspaces (sim/workspace.h): every
// task runs exactly once under chunked claims and stealing, exceptions
// propagate and leave the pool usable, nested batches degrade to
// sequential, and workspace reuse is bit-invisible in results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "sim/pool.h"

namespace latgossip {
namespace {

WeightedGraph test_graph() {
  Rng grng(7);
  auto g = make_erdos_renyi(64, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  return g;
}

TEST(TrialPool, RunsEveryTaskExactlyOnce) {
  TrialPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<std::size_t> bad_worker{0};
  pool.run(kTasks, 4, [&](std::size_t task, std::size_t worker) {
    if (worker >= 4) bad_worker.fetch_add(1);
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t t = 0; t < kTasks; ++t)
    ASSERT_EQ(hits[t].load(), 1) << "task " << t;
  EXPECT_EQ(bad_worker.load(), 0u);
}

TEST(TrialPool, GrowsOnDemandFromZeroWorkers) {
  TrialPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::atomic<std::size_t> ran{0};
  pool.run(10, 3, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10u);
  EXPECT_EQ(pool.workers(), 3u);
  // A smaller batch must not shrink the pool.
  pool.run(2, 1, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 12u);
  EXPECT_EQ(pool.workers(), 3u);
}

TEST(TrialPool, PropagatesExceptionsAndStaysUsable) {
  TrialPool pool(3);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.run(64, 3,
                        [&](std::size_t task, std::size_t) {
                          if (task == 17) throw std::runtime_error("boom");
                          ran.fetch_add(1);
                        }),
               std::runtime_error);
  // Tasks claimed after the failure are skipped, never run twice.
  EXPECT_LE(ran.load(), 63u);
  ran.store(0);
  pool.run(64, 3, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64u);
}

TEST(TrialPool, OnWorkerThreadFlag) {
  EXPECT_FALSE(TrialPool::on_worker_thread());
  TrialPool pool(2);
  std::atomic<int> on_worker{0};
  pool.run(8, 2, [&](std::size_t, std::size_t) {
    if (TrialPool::on_worker_thread()) on_worker.fetch_add(1);
  });
  EXPECT_EQ(on_worker.load(), 8);
  EXPECT_FALSE(TrialPool::on_worker_thread());
}

TEST(TrialPool, NestedBatchesDegradeToSequential) {
  // A trial whose body calls run_trials again must not wait on the pool
  // that is running it: resolve_threads() returns 1 on pool workers.
  std::atomic<int> oversubscribed{0};
  const WeightedGraph g = test_graph();
  const TrialFn inner = [&g](std::size_t, Rng rng) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    return run_gossip(g, proto);
  };
  const TrialFn outer = [&](std::size_t, Rng rng) {
    if (TrialPool::on_worker_thread() && resolve_threads(8) != 1)
      oversubscribed.fetch_add(1);
    const TrialAggregate inner_agg = run_trials(3, 8, rng(), inner);
    SimResult r;
    r.rounds = static_cast<Round>(inner_agg.rounds.mean());
    r.completed = inner_agg.all_completed();
    return r;
  };
  const TrialAggregate par = run_trials(6, 4, 21, outer);
  EXPECT_EQ(oversubscribed.load(), 0);
  // And nesting does not disturb determinism: the sequential outer run
  // (whose nested batches may themselves go parallel) agrees exactly.
  const TrialAggregate seq = run_trials(6, 1, 21, outer);
  EXPECT_EQ(par.trials, seq.trials);
  EXPECT_TRUE(par.all_completed());
}

TEST(TrialPool, EnvOverrideControlsDefaultConcurrency) {
  // detail::read_default_concurrency is the uncached computation behind
  // default_concurrency() (which latches its first result).
  ASSERT_EQ(setenv("LATGOSSIP_THREADS", "5", 1), 0);
  EXPECT_EQ(detail::read_default_concurrency(), 5u);
  ASSERT_EQ(setenv("LATGOSSIP_THREADS", "0", 1), 0);
  EXPECT_GE(detail::read_default_concurrency(), 1u);  // ignored: not > 0
  ASSERT_EQ(setenv("LATGOSSIP_THREADS", "many", 1), 0);
  EXPECT_GE(detail::read_default_concurrency(), 1u);  // ignored: not a number
  ASSERT_EQ(unsetenv("LATGOSSIP_THREADS"), 0);
  EXPECT_GE(detail::read_default_concurrency(), 1u);
  EXPECT_GE(default_concurrency(), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_GE(resolve_threads(0), 1u);
}

// --- Workspace reuse -------------------------------------------------------

TEST(TrialPoolWorkspace, SlotConstructsOncePerType) {
  TrialWorkspace ws;
  EXPECT_FALSE(ws.has_slot<int>());
  int& a = ws.slot<int>(41);
  EXPECT_EQ(a, 41);
  a = 7;
  // Second request returns the same object; construction args ignored.
  EXPECT_EQ(&ws.slot<int>(99), &a);
  EXPECT_EQ(ws.slot<int>(), 7);
  EXPECT_TRUE(ws.has_slot<int>());
  EXPECT_EQ(ws.find_slot<int>(), &a);
  EXPECT_EQ(ws.find_slot<double>(), nullptr);
  EXPECT_EQ(ws.num_slots(), 1u);
}

TEST(TrialPoolWorkspace, DepthScopeGivesDistinctWorkspaces) {
  TrialWorkspace& outer = trial_workspace();
  {
    const detail::TrialDepthScope scope;
    TrialWorkspace& inner = trial_workspace();
    EXPECT_NE(&outer, &inner);
    {
      const detail::TrialDepthScope scope2;
      EXPECT_NE(&trial_workspace(), &outer);
      EXPECT_NE(&trial_workspace(), &inner);
    }
    EXPECT_EQ(&trial_workspace(), &inner);
  }
  EXPECT_EQ(&trial_workspace(), &outer);
}

struct Probe {
  static std::atomic<int> constructions;
  int trials = 0;
  Probe() { constructions.fetch_add(1); }
};
std::atomic<int> Probe::constructions{0};

TEST(TrialPoolWorkspace, WorkersRecycleWorkspacesAcrossCalls) {
  // Ten separate run_trials calls at two threads: the probe parked in
  // each worker's workspace is constructed at most once per worker
  // thread — ever — while the trials keep arriving. This is the
  // cross-call recycling the persistent pool exists for (fresh threads
  // per call would construct per call).
  Probe::constructions.store(0);
  std::atomic<int> probe_trials{0};
  for (int call = 0; call < 10; ++call) {
    const TrialAggregate agg = run_trials(
        8, 2, 1234 + call, [&](std::size_t, Rng, TrialWorkspace& ws) {
          Probe& probe = ws.slot<Probe>();
          ++probe.trials;
          probe_trials.fetch_add(1);
          return SimResult{};
        });
    ASSERT_EQ(agg.trials.size(), 8u);
  }
  // Every trial went through a probe, but at most one probe exists per
  // worker thread — not per call, not per trial.
  EXPECT_EQ(probe_trials.load(), 80);
  EXPECT_LE(Probe::constructions.load(), 2);
  EXPECT_GE(Probe::constructions.load(), 1);
}

TrialWsFn reusing_broadcast_trial(const WeightedGraph& g) {
  return [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
    proto.reset(view, 0, rng);
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.workspace = &ws;
    return run_gossip(g, proto, opts);
  };
}

TEST(TrialPoolWorkspace, ReuseIsBitInvisibleAcrossThreadCounts) {
  // The reset contract, proven end to end: trials that recycle the
  // protocol and the engine's calendar queue out of their worker's
  // workspace produce results bit-identical to fresh-state trials, at
  // every thread count (different counts = different reuse patterns).
  const WeightedGraph g = test_graph();
  const TrialFn fresh = [&g](std::size_t, Rng rng) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    return run_gossip(g, proto, opts);
  };
  const TrialAggregate baseline = run_trials(24, 1, 42, fresh);
  const auto reusing = reusing_broadcast_trial(g);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const TrialAggregate agg = run_trials(24, threads, 42, reusing);
    EXPECT_EQ(baseline.trials, agg.trials) << "threads=" << threads;
    EXPECT_EQ(baseline.rounds.mean(), agg.rounds.mean());
    EXPECT_EQ(baseline.rounds.variance(), agg.rounds.variance());
  }
}

TEST(TrialPoolWorkspace, RecordingFingerprintsUnchangedByReuse) {
  // Event-granular check: the full activation/delivery event stream —
  // not just the summary results — is unchanged by workspace reuse.
  const WeightedGraph g = test_graph();
  const TrialFn fresh = [&g](std::size_t, Rng rng) {
    EventRecorder rec;
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, rng);
    SimOptions opts;
    opts.recorder = &rec;
    SimResult r = run_gossip(g, proto, opts);
    r.fingerprint = rec.fingerprint();
    return r;
  };
  const TrialWsFn reusing = [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
    EventRecorder rec;
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
    proto.reset(view, 0, rng);
    SimOptions opts;
    opts.recorder = &rec;
    opts.workspace = &ws;
    SimResult r = run_gossip(g, proto, opts);
    r.fingerprint = rec.fingerprint();
    return r;
  };
  const TrialAggregate baseline = run_trials(16, 1, 42, fresh);
  ASSERT_NE(baseline.fingerprint, 0u);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const TrialAggregate agg = run_trials(16, threads, 42, reusing);
    EXPECT_EQ(baseline.fingerprint, agg.fingerprint) << "threads=" << threads;
    EXPECT_EQ(baseline.trials, agg.trials);
  }
}

TEST(TrialPoolWorkspace, SteadyStateSnapshotArenaIsFlat) {
  // Sequential rumor-set sweep with a workspace-parked PushPullGossip:
  // after a warm-up batch, re-running the identical batch allocates no
  // new snapshot blocks and constructs no new workspace slots — the
  // "steady-state trials allocate nothing" claim, measured through the
  // arena's own instrumentation.
  const WeightedGraph g = test_graph();
  const TrialWsFn fn = [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullGossip>(
        view, GossipGoal::kAllToAll, NodeId{0},
        own_id_rumors(view.num_nodes()), rng);
    proto.reset_own_id(view, GossipGoal::kAllToAll, 0, rng);
    SimOptions opts;
    opts.workspace = &ws;
    return run_gossip(g, proto, opts);
  };
  const TrialAggregate warm = run_trials(4, 1, 9, fn);
  TrialWorkspace& ws = trial_workspace();
  const PushPullGossip* proto = ws.find_slot<PushPullGossip>();
  ASSERT_NE(proto, nullptr);
  const std::size_t blocks_after_warm = proto->snapshot_arena().allocated_blocks();
  const std::size_t slots_after_warm = ws.num_slots();
  EXPECT_GT(blocks_after_warm, 0u);

  const TrialAggregate again = run_trials(4, 1, 9, fn);
  EXPECT_EQ(proto->snapshot_arena().allocated_blocks(), blocks_after_warm);
  EXPECT_EQ(ws.num_slots(), slots_after_warm);
  // And reuse changed nothing observable.
  EXPECT_EQ(warm.trials, again.trials);
}

TEST(TrialPoolWorkspace, ProtocolResetMatchesFreshConstruction) {
  const WeightedGraph g = test_graph();
  const NetworkView view(g, false);
  // Broadcast: run, reset, run again with the same rng — identical.
  PushPullBroadcast fresh(view, 3, Rng(11));
  const SimResult first = run_gossip(g, fresh);
  PushPullBroadcast reused(view, 5, Rng(99));
  (void)run_gossip(g, reused);  // dirty it
  reused.reset(view, 3, Rng(11));
  EXPECT_EQ(run_gossip(g, reused), first);
  EXPECT_THROW(reused.reset(view, 1000, Rng(1)), std::invalid_argument);

  // Rumor-set gossip: same, with the snapshot arena recycled in place.
  PushPullGossip gfresh(view, GossipGoal::kAllToAll, 0,
                        own_id_rumors(g.num_nodes()), Rng(13));
  const SimResult gfirst = run_gossip(g, gfresh);
  PushPullGossip greused(view, GossipGoal::kAllToAll, 0,
                         own_id_rumors(g.num_nodes()), Rng(7));
  (void)run_gossip(g, greused);
  greused.reset_own_id(view, GossipGoal::kAllToAll, 0, Rng(13));
  EXPECT_EQ(run_gossip(g, greused), gfirst);

  // Biased broadcast (known latencies): reset matches fresh as well.
  const NetworkView known(g, true);
  BiasedPushPullBroadcast bfresh(known, 2, 1.0, Rng(17));
  const SimResult bfirst = run_gossip(g, bfresh);
  BiasedPushPullBroadcast breused(known, 0, 1.0, Rng(5));
  (void)run_gossip(g, breused);
  breused.reset(known, 2, 1.0, Rng(17));
  EXPECT_EQ(run_gossip(g, breused), bfirst);
}

}  // namespace
}  // namespace latgossip
