#pragma once
// RR Broadcast (Algorithm 2, Lemma 15): every node propagates its rumor
// set along its overlay out-edges of latency <= k, one per round in
// round-robin order, for k*Δout + k iterations. After that, any two
// nodes at weighted distance <= k in G have exchanged rumors.
//
// The overlay is normally the oriented Baswana–Sen spanner (Theorem 14);
// every overlay arc must be an edge of the underlying graph.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "graph/digraph.h"
#include "sim/engine.h"
#include "util/bitset.h"
#include "util/snapshot.h"

namespace latgossip {

class RRBroadcast {
 public:
  /// Copy-on-write snapshot handle — see PushPullGossip::Payload.
  using Payload = SnapshotRef;

  /// `k` caps both which arcs are used (latency <= k) and the iteration
  /// budget. `budget_override`, if nonzero, replaces the default
  /// k*Δout + k iteration count.
  RRBroadcast(const NetworkView& view, const DirectedGraph& overlay, Latency k,
              std::vector<Bitset> initial_rumors, Round budget_override = 0)
      : k_(k),
        rumors_(std::move(initial_rumors)),
        rumor_count_(view.num_nodes(), 0),
        snapshots_(view.num_nodes(), view.num_nodes()) {
    if (k < 1) throw std::invalid_argument("RR broadcast: k must be >= 1");
    const std::size_t n = view.num_nodes();
    if (overlay.num_nodes() != n)
      throw std::invalid_argument("RR broadcast: overlay size mismatch");
    if (rumors_.size() != n)
      throw std::invalid_argument("RR broadcast: rumor vector size mismatch");
    out_targets_.resize(n);
    std::size_t max_out = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (rumors_[u].size() != n)
        throw std::invalid_argument(
            "RR broadcast: rumor bitset size mismatch");
      rumors_[u].set(u);
      rumor_count_[u] = rumors_[u].count();
      for (const Arc& a : overlay.out_arcs(u))
        if (a.latency <= k) out_targets_[u].push_back(a.to);
      max_out = std::max(max_out, out_targets_[u].size());
    }
    budget_ = budget_override != 0
                  ? budget_override
                  : k * static_cast<Round>(max_out) + k;  // Lemma 15
  }

  static std::size_t payload_bits(const Payload& p) { return 32 * p.count(); }

  std::optional<NodeId> select_contact(NodeId u, Round r) {
    if (r >= budget_) return std::nullopt;
    const auto& targets = out_targets_[u];
    if (targets.empty()) return std::nullopt;
    return targets[static_cast<std::size_t>(r) % targets.size()];
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return snapshots_.shared(u, rumors_[u], rumor_count_[u]);
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return snapshots_.fresh(rumors_[u], rumor_count_[u]);
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round /*now*/) {
    const Bitset::OrDelta delta = rumors_[u].or_assign_changed(payload.bits());
    if (!delta.changed) return;
    rumor_count_[u] += delta.added;
    snapshots_.invalidate(u);
  }

  bool done(Round r) const {
    // Allow the final initiations (round budget_-1) to drain: their
    // deliveries land no later than budget_ - 1 + k.
    return r >= budget_ + k_;
  }

  Round budget() const { return budget_; }
  const std::vector<Bitset>& rumors() const { return rumors_; }
  std::vector<Bitset> take_rumors() { return std::move(rumors_); }

 private:
  Latency k_;
  Round budget_ = 0;
  std::vector<std::vector<NodeId>> out_targets_;  ///< filtered, per node
  std::vector<Bitset> rumors_;
  std::vector<std::size_t> rumor_count_;  ///< incremental cardinalities
  SnapshotCache snapshots_;
};

/// True iff every rumor set contains every node id.
bool all_sets_full(const std::vector<Bitset>& rumors);

/// True iff for every edge (u, v) of g both endpoints hold each other's
/// rumor (the local broadcast goal).
bool local_broadcast_complete(const WeightedGraph& g,
                              const std::vector<Bitset>& rumors);

}  // namespace latgossip
