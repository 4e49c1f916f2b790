#pragma once
// Differential execution: run one TestCase through the optimized engine
// (sim/engine.h) and the naive reference oracle (sim/oracle.h) and
// compare every observable — SimResult counters, the order-insensitive
// event-stream fingerprint, protocol outcomes (composites) — then apply
// the model invariants (check/invariants.h) to both runs.
//
// Simple protocols are instantiated twice from the same seed and driven
// by run_gossip() vs run_gossip_oracle() directly. Composite algorithms
// (unified, EID, T(k)) are run end-to-end twice under the case's round
// budget, the second time under a ScopedOracleEngine so every internal
// dispatch_gossip() lands on the oracle; because both engines consume
// protocol and fault randomness in exactly the same order when they
// conform, whole-composite outcomes, the context's clock and the budget
// left must match bit for bit.
//
// Scenarios (crashes, loss, jitter, drift, churn, adversary) reach the
// two sides differently: the engine runs the DynamicPlan built from the
// case's scenario_of(), the oracle re-derives every schedule from that
// plan's spec() with its own code.

#include <cstdint>
#include <string>
#include <vector>

#include "check/case_gen.h"
#include "sim/metrics.h"
#include "sim/oracle.h"

namespace latgossip {

struct DiffReport {
  bool ok = true;
  std::vector<std::string> failures;  ///< empty iff ok
  SimResult engine_result;
  SimResult oracle_result;
  std::uint64_t engine_fingerprint = 0;
  std::uint64_t oracle_fingerprint = 0;
  /// A composite whose round budget ran out (TestCase::max_rounds).
  bool budget_cut = false;
};

/// Execute `tc` on both engines and compare. `bug` (tests only) plants a
/// deliberate model deviation in the oracle so the shrinker self-test
/// has a divergence to minimize.
DiffReport run_differential(const TestCase& tc,
                            const oracle_detail::ModelBug& bug = {});

}  // namespace latgossip
