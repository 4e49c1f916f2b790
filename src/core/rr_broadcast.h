#pragma once
// RR Broadcast (Algorithm 2, Lemma 15): every node propagates its rumor
// set along its overlay out-edges of latency <= k, one per round in
// round-robin order, for k*Δout + k iterations. After that, any two
// nodes at weighted distance <= k in G have exchanged rumors.
//
// The overlay is normally the oriented Baswana–Sen spanner (Theorem 14);
// every overlay arc must be an edge of the underlying graph. The
// constructor resolves each arc it keeps to that edge once.

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
  /// k*Δout + k iteration count. Throws std::invalid_argument if a used
  /// arc is not an edge of the view's graph.
  RRBroadcast(const NetworkView& view, const DirectedGraph& overlay, Latency k,
              std::vector<Bitset> initial_rumors, Round budget_override = 0)
      : k_(k),
        rumors_("RR broadcast", view.num_nodes(), std::move(initial_rumors)) {
    if (k < 1) throw std::invalid_argument("RR broadcast: k must be >= 1");
    const std::size_t n = view.num_nodes();
    if (overlay.num_nodes() != n)
      throw std::invalid_argument("RR broadcast: overlay size mismatch");
    out_targets_.resize(n);
    std::size_t max_out = 0;
    for (NodeId u = 0; u < n; ++u) {
      rumors_.add(u, u);
      for (const Arc& a : overlay.out_arcs(u)) {
        if (a.latency > k) continue;
        const std::optional<EdgeId> e = view.graph().find_edge(u, a.to);
        if (!e)
          throw std::invalid_argument(
              "RR broadcast: overlay arc is not a graph edge");
        out_targets_[u].push_back(HalfEdge{a.to, *e});
      }
      max_out = std::max(max_out, out_targets_[u].size());
    }
    budget_ = budget_override != 0
                  ? budget_override
                  : k * static_cast<Round>(max_out) + k;  // Lemma 15
  }

  static std::size_t payload_bits(const Payload& p) { return 32 * p.count(); }

  std::optional<HalfEdge> select_contact(NodeId u, Round r) {
    if (r >= budget_) return std::nullopt;
    const auto& targets = out_targets_[u];
    if (targets.empty()) return std::nullopt;
    return targets[static_cast<std::size_t>(r) % targets.size()];
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return rumors_.capture(u);
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return rumors_.capture_copy(u);
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round /*now*/, Leg /*leg*/) {
    rumors_.merge(u, payload.bits());
  }

  bool done(Round r) const {
    // Allow the final initiations (round budget_-1) to drain: their
    // deliveries land no later than budget_ - 1 + k.
    return r >= budget_ + k_;
  }

  Round budget() const { return budget_; }
  const std::vector<Bitset>& rumors() const { return rumors_.sets(); }
  std::vector<Bitset> take_rumors() { return rumors_.take(); }

 private:
  Latency k_;
  Round budget_ = 0;
  /// Per node: the kept arcs, each with the graph edge it runs over.
  std::vector<std::vector<HalfEdge>> out_targets_;
  RumorTable rumors_;
};

/// True iff every rumor set contains every node id.
bool all_sets_full(const std::vector<Bitset>& rumors);

/// True iff for every edge (u, v) of g both endpoints hold each other's
/// rumor (the local broadcast goal).
bool local_broadcast_complete(const WeightedGraph& g,
                              const std::vector<Bitset>& rumors);

}  // namespace latgossip
