#pragma once
// Simulation outcome metrics shared by all protocol runs.

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"

namespace latgossip {

struct SimResult {
  Round rounds = 0;                   ///< round at which the run ended
  /// The protocol's goal held when the run ended: done() became true,
  /// or held on the frozen state at an idle stop. Composites set it to
  /// their own goal (every rumor set full, for the all-to-all ones).
  bool completed = false;
  std::size_t activations = 0;        ///< exchanges initiated
  std::size_t messages_delivered = 0; ///< payload deliveries (2/exchange)
  std::size_t messages_dropped = 0;   ///< deliveries lost to faults
  std::size_t exchanges_rejected = 0; ///< bounced by the in-degree cap
  std::size_t payload_bits = 0;       ///< total bits sent (see engine.h)
  std::size_t max_inflight = 0;       ///< peak concurrent deliveries
  /// Order-insensitive digest of the run's event stream (0 when no
  /// recorder was attached). The engine never writes this; the caller
  /// that owns the EventRecorder stamps it after the run (see
  /// obs/fingerprint.h), so multi-phase protocols carry one digest for
  /// the whole event stream rather than per-phase fragments.
  std::uint64_t fingerprint = 0;

  bool operator==(const SimResult&) const = default;

  /// Merge a sequential phase into a running total.
  SimResult& accumulate(const SimResult& phase) {
    rounds += phase.rounds;
    completed = phase.completed;
    activations += phase.activations;
    messages_delivered += phase.messages_delivered;
    messages_dropped += phase.messages_dropped;
    exchanges_rejected += phase.exchanges_rejected;
    payload_bits += phase.payload_bits;
    if (phase.max_inflight > max_inflight) max_inflight = phase.max_inflight;
    fingerprint += phase.fingerprint;  // commutative merge; usually 0
    return *this;
  }
};

}  // namespace latgossip
