#pragma once
// Model invariants checked on every differential run — properties that
// must hold for ANY conforming engine execution, independent of which
// engine produced it. Violations are reported as human-readable failure
// strings (empty vector == all invariants hold).
//
// Checked here:
//  * accounting: the recorder's per-kind event counts equal the
//    SimResult's activation / delivery / drop counters;
//  * latency conformance: every delivery or drop event completes
//    exactly latency(edge) rounds after its initiation round (>= 1
//    when jitter rewrites latencies);
//  * stream shape: within one single-phase run the event stream is
//    round-monotone and never extends past SimResult::rounds;
//  * informed-set monotonicity (single-source broadcast only): the
//    source is informed at round 0, every other informed node is
//    justified by a delivery whose sender was informed when the
//    payload snapshot was taken, and an informed sender's delivery
//    always leaves the receiver informed.

#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "sim/dynamics_spec.h"
#include "sim/metrics.h"

namespace latgossip {

struct InvariantInput {
  const WeightedGraph* graph = nullptr;
  SimResult result;
  /// The run's events; the checks read them, so it keeps its log
  /// (EventLog::kKeep).
  const EventRecorder* recorder = nullptr;
  /// Jitter rewrites per-exchange latencies; the exact-latency check
  /// degrades to completion-after-initiation.
  bool jitter_active = false;
  /// Composite runs (EID, T(k), unified) restart rounds per phase and
  /// accumulate SimResults across internal runs; the stream-shape and
  /// accounting checks only apply to single-phase runs.
  bool multi_phase = false;
  /// Per-node inform round from a single-source broadcast protocol
  /// (PushPullBroadcast::inform_round), -1 = never informed. Null skips
  /// the monotonicity check.
  const std::vector<Round>* inform_round = nullptr;
  NodeId source = 0;
  /// Dynamic scenario the run was driven under (null = none). Enables
  /// the churn-absence invariants: no delivery may touch an absent
  /// endpoint, and no absent node may initiate an activation (absence
  /// re-derived via the oracle-side brute-force interpreter).
  const DynamicSpec* dynamics = nullptr;
};

/// Run every applicable invariant; returns the failures (empty == ok).
/// `label` prefixes each failure string ("engine" / "oracle").
std::vector<std::string> check_invariants(const InvariantInput& in,
                                          const std::string& label);

}  // namespace latgossip
