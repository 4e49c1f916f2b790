#pragma once
// Termination Check (Algorithm 1, Section 5.3, Lemma 18).
//
// After a dissemination attempt with diameter estimate k, every node v
// raises a flag when some graph neighbor is missing from its rumor set.
// A first broadcast-and-gather within k-distance neighborhoods lets each
// node compare its (frozen) rumor-set fingerprint and flag against all
// nodes it can reach — and check that the set of nodes it heard from is
// exactly its rumor set; a second pass propagates the resulting "failed"
// verdict so that all nodes agree (Lemma 18: no node terminates before
// exchanging rumors with everyone, and all nodes decide in the same
// round). The heard-set/rumor-set comparison is load-bearing: a node
// that passes heard a neighbor-closed set of like-minded nodes, and in a
// connected graph such a set must be all of V, so early termination with
// an incomplete rumor set is impossible no matter how the underlying
// broadcast primitive behaves on a too-small estimate.
//
// The broadcast primitive is pluggable ("any broadcast algorithm that
// can broadcast and collect back information from all nodes at distance
// <= k can be used"): General EID passes RR Broadcast on its spanner,
// Path Discovery passes the T(k) DTG sequence. A primitive run reports
// which node ids reached each node; the check's comparison data flows
// along exactly those delivery paths.
//
// The check closes one guess-and-double loop, shared by General EID
// (Algorithm 4), Path Discovery (Algorithm 6) and the unknown-latency
// branch of Section 4.2: run_guess_and_double() owns the estimates
// k = k0, 2k0, 4k0, ..., the check after every attempt and the verdict;
// each algorithm supplies only its attempt at k and that attempt's
// broadcast primitive.

#include <cstddef>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/metrics.h"
#include "util/bitset.h"

namespace latgossip {

class CompositeContext;  // obs/metrics.h

/// One fresh broadcast pass: returns per-node heard-from sets (own id
/// included) and the rounds it consumed.
using HeardSetsFn = std::function<std::pair<std::vector<Bitset>, SimResult>()>;

struct CheckOutcome {
  bool failed = false;     ///< some node decided "failed"
  bool unanimous = false;  ///< all nodes reached the same verdict (Lemma 18)
  SimResult sim;           ///< rounds/messages of the two broadcast passes
};

/// Run the check for estimate k against the current rumor sets.
CheckOutcome run_termination_check(const WeightedGraph& g,
                                   const std::vector<Bitset>& rumors,
                                   const HeardSetsFn& broadcast);

/// What a guess-and-double run returns.
struct DoublingOutcome {
  /// Every attempt and check. `completed` holds when a check passed and
  /// every rumor set is full; a check can pass on a disconnected graph,
  /// whose sets never fill.
  SimResult sim;
  std::vector<Bitset> rumors;    ///< final rumor sets
  Latency final_estimate = 0;    ///< k at successful termination
  std::size_t attempts = 0;      ///< attempts run (doublings + 1)
  bool success = false;          ///< some check passed
  bool checks_unanimous = true;  ///< Lemma 18 held in every check
};

/// One attempt at estimate k: advance `rumors` in place, add its cost
/// to `sim`, and return the broadcast primitive of k's check.
using AttemptFn = std::function<HeardSetsFn(
    Latency k, std::vector<Bitset>& rumors, SimResult& sim)>;

/// Guess and double from own-id rumors: for k = initial_guess, twice
/// that, ... up to 2·n·ℓmax, run the attempt at k and then the check
/// with its primitive, and stop at the first check that passes, or
/// once `ctx`'s round budget is spent (success false). A graph of at
/// most one node succeeds at once. `ctx` (optional) tags each check as
/// phase `check_phase`.
DoublingOutcome run_guess_and_double(const WeightedGraph& g,
                                     Latency initial_guess,
                                     const AttemptFn& attempt,
                                     CompositeContext* ctx,
                                     std::string_view check_phase);

}  // namespace latgossip
