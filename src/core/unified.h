#pragma once
// Unified dissemination (Theorem 20): run push–pull and the spanner
// branch "in parallel" and finish with whichever completes first —
// O(min((D+Δ) log³ n, (ℓ*/φ*) log n)) with unknown latencies and
// O(min(D log³ n, (ℓ*/φ*) log n)) with known latencies.
//
// The simulation runs both branches and reports the minimum: running two
// protocols side by side costs each node at most two initiations per
// round, a constant-factor model change the paper's statement absorbs.

#include "graph/graph.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace latgossip {

class CompositeContext;  // obs/metrics.h

enum class UnifiedWinner { kPushPull, kSpanner };

struct UnifiedOutcome {
  /// Both branches' counters summed, the winner's rounds (the minimum
  /// over completed branches), and `completed` when either branch
  /// completed.
  SimResult sim;
  Round push_pull_rounds = 0;
  bool push_pull_completed = false;
  Round spanner_rounds = 0;
  bool spanner_completed = false;
  UnifiedWinner winner = UnifiedWinner::kPushPull;
};

struct UnifiedOptions {
  bool latencies_known = false;
  std::size_t n_hat = 0;          ///< 0 = exact n
  Round push_pull_cap = 2'000'000; ///< give-up bound for the push-pull run
};

/// All-to-all information dissemination via both branches. Both run
/// through `ctx` (optional, obs/metrics.h), as phases
/// "unified/push_pull" and "unified/spanner" with EID's internal phases
/// nested under the latter. Each branch gets the context's whole round
/// budget, as the paper runs them in parallel; the clock sums both.
UnifiedOutcome run_unified(const WeightedGraph& g,
                           const UnifiedOptions& options, Rng& rng,
                           CompositeContext* ctx = nullptr);

}  // namespace latgossip
