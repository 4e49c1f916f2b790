#pragma once
// The alternative all-to-all dissemination algorithm of Appendix E: the
// recursive schedule
//
//   T(1) = 1-DTG,     T(k) = T(k/2) · k-DTG · T(k/2)
//
// i.e. the ruler pattern 1,2,1,4,1,2,1,8,... of ℓ-DTG invocations. After
// executing T(k), any two nodes at weighted distance <= k have exchanged
// rumors (Lemma 24), and T(D) solves all-to-all dissemination in
// O(D log^2 n log D) time (Lemma 25) — without knowledge of any bound on
// n. Path Discovery (Algorithm 6) wraps T(k) in guess-and-double with
// the Termination Check (Lemma 26).

#include <vector>

#include "core/termination.h"
#include "graph/graph.h"
#include "sim/metrics.h"
#include "util/bitset.h"

namespace latgossip {

class CompositeContext;  // obs/metrics.h

/// The sequence of ℓ parameters of T(k). `k` must be a power of two.
std::vector<Latency> tk_pattern(Latency k);

/// Smallest power of two >= k.
Latency next_power_of_two(Latency k);

struct TkOutcome {
  SimResult sim;  ///< every pass; `completed` = every rumor set full
  std::vector<Bitset> rumors;
};

/// Execute the schedule T(k) (k rounded up to a power of two) starting
/// from `initial_rumors`. Requires the known-latency model. Every ℓ-DTG
/// pass runs through `ctx` (optional, obs/metrics.h) as phase
/// "tk/dtg_ell_<ℓ>" — the recursion-level split behind Lemma 25's
/// O(D log^2 n log D) accounting.
TkOutcome run_tk_schedule(const WeightedGraph& g, Latency k,
                          std::vector<Bitset> initial_rumors,
                          CompositeContext* ctx = nullptr);

/// Path Discovery (Algorithm 6): guess-and-double over T(k) with the
/// Termination Check, broadcast primitive = another T(k) pass. `ctx`
/// additionally tags "tk/termination_check", a trace marker: the
/// check's passes charge their own, innermost "tk/dtg_ell_<ℓ>" phases.
DoublingOutcome run_path_discovery(const WeightedGraph& g,
                                   CompositeContext* ctx = nullptr);

}  // namespace latgossip
