// M3 — engineering micro-benchmarks: simulator throughput under the
// main protocols, the hook-policy fast path vs the dynamic path, the
// cost of recording, and the parallel trial runner. The end-to-end
// record across changes is perfbench (BENCHMARK.json).

#include <benchmark/benchmark.h>

#include "core/dtg.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/parallel.h"

using namespace latgossip;

static void BM_PushPullBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(1);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  assign_random_uniform_latency(g, 1, 8, grng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(++seed));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    benchmark::DoNotOptimize(run_gossip(g, proto, opts).rounds);
  }
}
BENCHMARK(BM_PushPullBroadcast)->Range(64, 4096);

// Same workload with an inert scenario installed: forces the hooked
// path, so the gap to BM_PushPullBroadcast is the cost the NoHooks
// compile-time policy removes from hook-free runs.
static void BM_PushPullBroadcastHooked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(1);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  assign_random_uniform_latency(g, 1, 8, grng);
  DynamicPlan inert(g.num_nodes(), g.num_edges(), DynamicSpec{});
  std::uint64_t seed = 0;
  for (auto _ : state) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(++seed));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.dynamics = &inert;
    benchmark::DoNotOptimize(run_gossip(g, proto, opts).rounds);
  }
}
BENCHMARK(BM_PushPullBroadcastHooked)->Range(64, 4096);

// Same workload recorded by a folding recorder, fingerprint included:
// the gap to BM_PushPullBroadcast is what recording costs a run.
static void BM_PushPullBroadcastRecorded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(1);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  assign_random_uniform_latency(g, 1, 8, grng);
  EventRecorder recorder;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    recorder.clear();
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(++seed));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    opts.recorder = &recorder;
    benchmark::DoNotOptimize(run_gossip(g, proto, opts).rounds);
    benchmark::DoNotOptimize(recorder.fingerprint());
  }
}
BENCHMARK(BM_PushPullBroadcastRecorded)->Range(64, 4096);

// Trial-runner overhead and scaling: a fixed batch of broadcasts
// dispatched through run_trials at various thread counts.
static void BM_RunTrialsPushPull(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  Rng grng(1);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  assign_random_uniform_latency(g, 1, 8, grng);
  // Workspace overload: protocol + engine state recycled per worker
  // across trials and batches, as in the production sweeps.
  for (auto _ : state) {
    const TrialAggregate agg = run_trials(
        16, threads, 99, [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
          NetworkView view(g, false);
          auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
          proto.reset(view, 0, rng);
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          opts.workspace = &ws;
          return run_gossip(g, proto, opts);
        });
    benchmark::DoNotOptimize(agg.rounds.mean());
  }
}
BENCHMARK(BM_RunTrialsPushPull)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void BM_PushPullAllToAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(2);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  std::uint64_t seed = 100;
  for (auto _ : state) {
    NetworkView view(g, false);
    PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                         own_id_rumors(n), Rng(++seed));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    benchmark::DoNotOptimize(run_gossip(g, proto, opts).rounds);
  }
}
BENCHMARK(BM_PushPullAllToAll)->Range(64, 512);

static void BM_DtgLocalBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng grng(3);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  for (auto _ : state) {
    NetworkView view(g, true);
    DtgLocalBroadcast proto(view, 1, own_id_rumors(n));
    SimOptions opts;
    opts.stop_when_idle = false;
    opts.max_rounds = 1'000'000;
    benchmark::DoNotOptimize(run_gossip(g, proto, opts).rounds);
  }
}
BENCHMARK(BM_DtgLocalBroadcast)->Range(64, 1024);
