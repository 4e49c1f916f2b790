#pragma once
// Store-backed trial batches: run_trials() with a cache in front.
//
// run_trials_stored() is a drop-in wrapper around sim/parallel.h
// run_trials(): every trial first derives its cell key (CellSpec +
// per-trial seed) and looks it up in the ExperimentStore. A hit returns
// the cached SimResult without computing — the trial body never runs —
// and a miss computes, inserts, and returns. Because trial identity is
// (cell, trial seed) and aggregation stays in trial order, a batch with
// any mix of hits and misses aggregates bit-identically to a batch
// computed from scratch (proven by tests/store_test.cpp).
//
// Verify mode is the trust-but-verify arm: hits are recomputed anyway
// and the fresh SimResult — event-stream fingerprint included — must
// equal the cached one bit for bit; a mismatch throws with the cell key
// in the message. This is how a model change that forgot to bump
// kStoreModelVersion gets caught (store/key.h).
//
// Caveat for callers: the trial body must stamp result.fingerprint
// (record with an EventRecorder) if verify-grade caching is wanted —
// a zero fingerprint verifies only the SimResult counters. execute()
// (store/run.h) records every stored batch for exactly this reason.
//
// Concurrency: lookups and inserts happen on TrialPool workers; the
// store serializes internally (store/store.h). Counters here are
// atomics folded into StoredBatchStats after the pool drains.

#include <cstdint>
#include <functional>

#include "sim/parallel.h"
#include "store/key.h"
#include "store/store.h"

namespace latgossip {

/// Binding of one batch to a store: where to look, what cell identity,
/// whether to recompute hits.
struct StoreBinding {
  ExperimentStore* store = nullptr;  ///< required
  CellSpec cell;                     ///< identity minus the trial seed
  bool verify = false;               ///< recompute hits, assert identical

  /// Optional meta payload round-trip (e.g. spread curves). On a miss,
  /// `meta_fn(trial)` runs after the trial body and its return value
  /// (a serialized JSON object, or "") is stored alongside the result.
  /// On a hit, `on_hit_meta(trial, meta)` replays the cached payload so
  /// the caller can fill per-trial side channels without computing.
  /// Both run on worker threads; use pre-sized per-trial slots.
  std::function<std::string(std::size_t trial)> meta_fn;
  std::function<void(std::size_t trial, const std::string& meta)> on_hit_meta;
};

/// Hit/miss accounting for one batch.
struct StoredBatchStats {
  std::size_t hits = 0;      ///< cells answered from the store
  std::size_t misses = 0;    ///< cells computed and inserted
  std::size_t verified = 0;  ///< hits recomputed and proven identical
};

/// run_trials() with the store consulted per trial. `stats_out`
/// (optional) receives the batch's hit/miss/verified counts. Throws
/// std::runtime_error when verify finds a divergent cached record.
TrialAggregate run_trials_stored(const StoreBinding& binding,
                                 StoredBatchStats* stats_out,
                                 std::size_t num_trials, std::size_t threads,
                                 std::uint64_t seed, const TrialWsFn& trial,
                                 const ManifestSpec* manifest = nullptr);

}  // namespace latgossip
