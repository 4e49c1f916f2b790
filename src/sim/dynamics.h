// DynamicPlan: the engine-side implementation of a DynamicSpec
// (sim/dynamics_spec.h documents the schedule-derivation contracts).
// Construct one from a spec, point SimOptions::dynamics at it, run. The
// engine calls begin_run() as each run starts, so one plan replays the
// same scenario on every run it drives.
//
// Implementation strategy (deliberately different from the oracle's
// brute force in sim/oracle.cpp, so the differential sweep compares two
// independent mechanisations of the same contract):
//  * crash rounds live in a per-node table filled at construction; the
//    loss stream's starting state is saved right after the crash draw;
//  * churn intervals are precomputed per node at construction;
//  * per-edge drift factors live in an incremental cache advanced
//    monotonically round by round (runs query rounds in nondecreasing
//    order within a run; begin_run() rewinds the cache);
//  * the adversary's touched set is a Bitset updated on note_delivery.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/dynamics_spec.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace latgossip {

/// Validate a spec against a node count. Returns an empty string when
/// the spec is usable and a human-readable complaint otherwise.
std::string dynamic_spec_error(const DynamicSpec& spec, std::size_t num_nodes);

/// Parse a `--dynamics=` CLI string: comma-separated key=value pairs
///   drift=STEP  drift-bound=B  churn=PROB  churn-window=W
///   churn-absence=A  churn-mode=retain|reset|mixed  adv=SLOW  seed=S
/// Omitted churn knobs default to window=16, absence=8, mode=reset;
/// drift-bound defaults to 2048. `source` becomes both churn_spare and
/// adv_source. Throws std::invalid_argument on malformed input (every
/// value must be consumed whole; numbers must fit their field) or when
/// the resulting spec fails dynamic_spec_error().
DynamicSpec parse_dynamics_spec(const std::string& text, std::size_t num_nodes,
                                NodeId source);

/// One-line human summary ("drift=16/2048 churn=0.5 mode=reset ...").
std::string describe_dynamics(const DynamicSpec& spec);

/// Exact canonical serialization of every active schedule ("" when
/// none is active): two specs that can produce different runs never
/// serialize alike. Probabilities are written as hex floats. This is
/// the scenario part of an experiment-store cell key (store/key.h).
std::string canonical_dynamics(const DynamicSpec& spec);

class DynamicPlan {
 public:
  /// Throws std::invalid_argument when dynamic_spec_error() complains.
  DynamicPlan(std::size_t num_nodes, std::size_t num_edges,
              const DynamicSpec& spec);

  /// The declarative spec this plan implements; the oracle reads only
  /// this and re-derives every schedule with independent code.
  const DynamicSpec& spec() const noexcept { return spec_; }

  /// Restore the per-run state: the loss and jitter streams, the drift
  /// caches and the adversary's touched set. The engine calls this at
  /// the start of every run.
  void begin_run();

  /// u has crashed by round r.
  bool crashed(NodeId u, Round r) const noexcept {
    return !crash_round_.empty() && crash_round_[u] <= r;
  }
  /// u is away to churn in round r.
  bool absent(NodeId u, Round r) const noexcept {
    if (churn_.empty()) return false;
    const Churn& c = churn_[u];
    return c.leave >= 0 && r >= c.leave && r < c.rejoin;
  }
  /// u takes no part in round r: crashed or absent.
  bool down(NodeId u, Round r) const noexcept {
    return crashed(u, r) || absent(u, r);
  }
  /// The loss stream's verdict on the next leg whose endpoints are both
  /// up: true loses it. Draws nothing when link loss is off.
  bool drop_leg() noexcept {
    return spec_.drop_prob > 0.0 && drop_rng_.bernoulli(spec_.drop_prob);
  }
  /// Effective latency of a contact selected at round r: jitter, drift
  /// and the adversary applied in the documented composition order.
  Latency adjust_latency(NodeId u, NodeId peer, EdgeId e, Latency lat,
                         Round r);
  /// Report a successful delivery (the adversary's touched set grows).
  void note_delivery(NodeId to) {
    if (!touched_.empty()) touched_.set(to);
  }
  /// Nodes rejoining with reset at the top of round r, ascending id.
  std::span<const NodeId> resets_at(Round r) const;

 private:
  struct Churn {
    Round leave = -1;   ///< first absent round (-1: never leaves)
    Round rejoin = -1;  ///< first round present again
    bool reset = false;
  };
  struct DriftState {
    Round round = 0;
    std::uint64_t factor = 1024;
  };

  std::uint64_t drift_factor(EdgeId e, Round r);

  DynamicSpec spec_;
  std::size_t num_nodes_ = 0;
  std::vector<Round> crash_round_;  ///< per node; empty unless crashing
  Rng drop_start_;                  ///< loss stream as of run start
  Rng drop_rng_;
  Rng jitter_rng_;
  std::vector<Churn> churn_;  ///< empty unless churn is active
  /// Rejoin-with-reset events sorted by (round, node), split into
  /// parallel vectors so resets_at() can answer with a contiguous
  /// equal_range span over reset_nodes_.
  std::vector<Round> reset_rounds_;
  std::vector<NodeId> reset_nodes_;
  std::vector<DriftState> drift_;  ///< per edge; empty unless drifting
  Bitset touched_;                 ///< adversary; empty unless active
};

}  // namespace latgossip
