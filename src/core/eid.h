#pragma once
// Efficient Information Dissemination (Algorithm 3, Theorem 14 /
// Lemma 17) and General EID (Algorithm 4, Section 5.3, Theorem 19).
//
// EID(D), for known latencies and diameter estimate D:
//   1. O(log n) executions of D-DTG — charged in simulated rounds; the
//      paper uses them to collect log n-hop neighborhoods so nodes can
//      run the spanner algorithm locally;
//   2. Baswana–Sen oriented spanner of G_D — a local computation (zero
//      rounds) given the discovered neighborhoods and shared randomness;
//   3. RR Broadcast on the spanner with parameter (2k-1)·D, covering the
//      spanner's worst-case stretched distances.
//
// Total: O(D log^3 n) rounds for all-to-all dissemination.
//
// General EID doubles the estimate k = 1, 2, 4, ... and runs EID(k)
// followed by the Termination Check; rumor sets persist across attempts.
// The doubling loop is core/termination.h's run_guess_and_double().

#include <cstddef>
#include <vector>

#include "core/spanner.h"
#include "core/termination.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "sim/metrics.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace latgossip {

class CompositeContext;  // obs/metrics.h

struct EidOptions {
  Latency diameter_estimate = 0;  ///< D (required, >= 1)
  std::size_t n_hat = 0;          ///< size estimate; 0 = exact n
  /// Ablation: run the discovery phase under DTG's randomized link rule
  /// (LinkRule::kUniformUnheard) instead of the deterministic script
  /// (Section 5.1 lists both as viable; the paper builds on DTG).
  bool randomized_local_broadcast = false;
};

struct EidOutcome {
  /// Accumulated over all phases; `completed` = every node heard every
  /// rumor.
  SimResult sim;
  std::vector<Bitset> rumors;  ///< final rumor sets
  DirectedGraph spanner{0};
};

/// One EID execution with estimate `options.diameter_estimate`, starting
/// from `initial_rumors` (own ids are added automatically). Every
/// internal run goes through `ctx` (optional, obs/metrics.h), under the
/// phases "eid/local_broadcast" (the O(log n) DTG discovery
/// executions), "eid/spanner" (local computation, zero simulated
/// rounds) and "eid/rr_broadcast" — the split Theorem 19's
/// O(D log^3 n) accounting needs. Protocol objects are still built per
/// phase (they consume the rumor sets by move).
EidOutcome run_eid(const WeightedGraph& g, const EidOptions& options,
                   std::vector<Bitset> initial_rumors, Rng& rng,
                   CompositeContext* ctx = nullptr);

/// One attempt of General EID: EID(k) with k =
/// `options.diameter_estimate` on `rumors` (in place), its cost added
/// to `sim`. Returns the Termination Check's broadcast primitive, RR
/// Broadcast from fresh own-id rumors on this attempt's spanner
/// (Section 5.3), run through `ctx` as well.
HeardSetsFn run_eid_attempt(const WeightedGraph& g, const EidOptions& options,
                            std::vector<Bitset>& rumors, SimResult& sim,
                            Rng& rng, CompositeContext* ctx = nullptr);

/// Guess-and-double EID with the Termination Check (Algorithm 4).
/// `ctx` (optional) threads through every EID attempt and additionally
/// tags "eid/termination_check".
DoublingOutcome run_general_eid(const WeightedGraph& g, std::size_t n_hat,
                                Rng& rng, Latency initial_guess = 1,
                                CompositeContext* ctx = nullptr);

}  // namespace latgossip
