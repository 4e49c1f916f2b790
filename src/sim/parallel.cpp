#include "sim/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "obs/fingerprint.h"
#include "sim/pool.h"

namespace latgossip {

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t trial) noexcept {
  // Decorrelate the batch seed from the trial index with one golden-ratio
  // multiply, then finalize with a SplitMix64 step. The +1 keeps trial 0
  // from passing the seed through unmixed.
  std::uint64_t state = seed ^ ((trial + 1) * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

namespace detail {
std::size_t read_default_concurrency() noexcept {
  if (const char* env = std::getenv("LATGOSSIP_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}
}  // namespace detail

std::size_t default_concurrency() noexcept {
  static const std::size_t cached = detail::read_default_concurrency();
  return cached;
}

std::size_t resolve_threads(std::size_t threads) noexcept {
  // A batch dispatched from inside a pool worker must not wait on the
  // pool that is running it: degrade nested batches to sequential.
  if (TrialPool::on_worker_thread()) return 1;
  return threads == 0 ? default_concurrency() : threads;
}

namespace {

/// Run trial `t`: time it, hand it the given workspace (under a depth
/// scope so nested batches see their own workspaces), stamp the
/// workspace's trial counter.
std::pair<SimResult, double> run_one_trial(const TrialWsFn& make_trial,
                                           std::uint64_t seed, std::size_t t,
                                           TrialWorkspace& ws) {
  const auto start = std::chrono::steady_clock::now();
  SimResult result;
  {
    const detail::TrialDepthScope depth_scope;
    result = make_trial(t, Rng(trial_seed(seed, t)), ws);
  }
  const auto stop = std::chrono::steady_clock::now();
  ws.note_trial();
  return {std::move(result),
          std::chrono::duration<double, std::milli>(stop - start).count()};
}

}  // namespace

TrialAggregate run_trials(std::size_t num_trials, std::size_t threads,
                          std::uint64_t seed, const TrialWsFn& make_trial,
                          const ManifestSpec* manifest) {
  TrialAggregate agg;
  agg.trials.resize(num_trials);
  agg.wall_ms.resize(num_trials, 0.0);
  if (num_trials == 0) return agg;

  threads = std::min(resolve_threads(threads), num_trials);
  if (threads <= 1) {
    // Sequential batches run inline on the caller, against the caller's
    // own persistent workspace — no pool involvement, so nested batches
    // on pool workers recycle the worker's state just like top-level
    // sequential runs on the main thread.
    for (std::size_t t = 0; t < num_trials; ++t) {
      auto [result, wall_ms] =
          run_one_trial(make_trial, seed, t, trial_workspace());
      agg.trials[t] = std::move(result);
      agg.wall_ms[t] = wall_ms;
    }
  } else {
    // Parallel batches run on the shared persistent pool (sim/pool.h):
    // no thread spawn/join per call, and each worker's thread-local
    // workspace survives into the next batch. Workers append into
    // per-worker arenas instead of writing the shared pre-sized
    // `trials`/`wall_ms` vectors directly: adjacent SimResult/double
    // slots claimed by different workers share cache lines, and the
    // resulting false sharing throttles scaling exactly when trials are
    // short. Results are placed into their trial-order slots after the
    // batch drains, so aggregation stays bit-identical for any thread
    // count (and any work-stealing schedule).
    struct TrialSlot {
      std::size_t trial;
      SimResult result;
      double wall_ms;
    };
    std::vector<std::vector<TrialSlot>> arenas(threads);
    for (auto& arena : arenas) arena.reserve(num_trials / threads + 1);
    TrialPool::global().run(
        num_trials, threads, [&](std::size_t t, std::size_t w) {
          auto [result, wall_ms] =
              run_one_trial(make_trial, seed, t, trial_workspace());
          arenas[w].push_back(TrialSlot{t, std::move(result), wall_ms});
        });
    for (std::vector<TrialSlot>& arena : arenas)
      for (TrialSlot& slot : arena) {
        agg.trials[slot.trial] = std::move(slot.result);
        agg.wall_ms[slot.trial] = slot.wall_ms;
      }
  }

  // Sequential aggregation in trial order: thread-count independent.
  for (const SimResult& r : agg.trials) {
    agg.rounds.add(static_cast<double>(r.rounds));
    agg.activations.add(static_cast<double>(r.activations));
    agg.messages_delivered.add(static_cast<double>(r.messages_delivered));
    agg.payload_bits.add(static_cast<double>(r.payload_bits));
    agg.fingerprint =
        fingerprint_merge_digests(agg.fingerprint, r.fingerprint);
    if (r.completed) ++agg.num_completed;
  }

  if (manifest != nullptr) {
    // Stamp what the batch actually ran on (post-override, post-cap):
    // the caller's RunInfo only knows what was *requested*.
    RunInfo info = manifest->info;
    info.threads_effective = threads;
    if (const char* env = std::getenv("LATGOSSIP_THREADS"))
      info.threads_env = env;
    // One open per batch. Every write is checked, and so is the close,
    // which flushes what the stream still buffers.
    std::FILE* f = std::fopen(manifest->path.c_str(), "a");
    bool written = f != nullptr;
    for (std::size_t t = 0; written && t < num_trials; ++t) {
      const std::string metrics_snapshot =
          manifest->metrics_json_snapshot ? manifest->metrics_json_snapshot(t)
                                          : std::string();
      std::string line = manifest_record(info, t, trial_seed(seed, t),
                                         agg.trials[t], agg.wall_ms[t],
                                         metrics_snapshot);
      line += '\n';
      written = std::fwrite(line.data(), 1, line.size(), f) == line.size();
    }
    if (f != nullptr && std::fclose(f) != 0) written = false;
    if (!written)
      throw std::runtime_error("run_trials: cannot write manifest " +
                               manifest->path);
  }
  return agg;
}

TrialAggregate run_trials(std::size_t num_trials, std::size_t threads,
                          std::uint64_t seed, const TrialFn& make_trial,
                          const ManifestSpec* manifest) {
  return run_trials(
      num_trials, threads, seed,
      TrialWsFn([&make_trial](std::size_t t, Rng rng, TrialWorkspace&) {
        return make_trial(t, std::move(rng));
      }),
      manifest);
}

}  // namespace latgossip
