#pragma once
// Round-robin flooding baseline: every node cycles deterministically
// through its neighbors, initiating one exchange per round. This is the
// natural deterministic comparator for push–pull; on a star it exhibits
// the Ω(nD) behavior the paper's footnote 2 warns about for push-only
// protocols, while with bidirectional exchanges it is a strong simple
// baseline.

#include <optional>
#include <stdexcept>
#include <vector>

#include "core/push_pull.h"
#include "sim/engine.h"
#include "util/bitset.h"
#include "util/snapshot.h"

namespace latgossip {

class RoundRobinFlooding {
 public:
  /// Copy-on-write snapshot handle — see PushPullGossip::Payload.
  using Payload = SnapshotRef;

  RoundRobinFlooding(const NetworkView& view, GossipGoal goal, NodeId source,
                     std::vector<Bitset> initial_rumors)
      : view_(view),
        goal_(goal),
        source_(source),
        rumors_(std::move(initial_rumors)),
        rumor_count_(view.num_nodes(), 0),
        snapshots_(view.num_nodes(), view.num_nodes()),
        next_neighbor_(view.num_nodes(), 0),
        satisfied_(view.num_nodes(), false),
        last_gain_(view.num_nodes(), 0) {
    if (rumors_.size() != view.num_nodes())
      throw std::invalid_argument("flooding: rumor vector size mismatch");
    if (goal == GossipGoal::kSingleSource && source >= view.num_nodes())
      throw std::invalid_argument("flooding: bad source");
    for (NodeId u = 0; u < view.num_nodes(); ++u) {
      if (rumors_[u].size() != view.num_nodes())
        throw std::invalid_argument("flooding: rumor bitset size mismatch");
      rumor_count_[u] = rumors_[u].count();
      refresh_satisfied(u);
    }
  }

  static std::size_t payload_bits(const Payload& p) { return 32 * p.count(); }

  std::optional<NodeId> select_contact(NodeId u, Round /*r*/) {
    const auto neigh = view_.neighbors(u);
    if (neigh.empty()) return std::nullopt;
    const NodeId target = neigh[next_neighbor_[u] % neigh.size()].to;
    ++next_neighbor_[u];
    return target;
  }

  Payload capture_payload(NodeId u, Round /*r*/) {
    return snapshots_.shared(u, rumors_[u], rumor_count_[u]);
  }

  /// Naive deep-copy capture for the reference oracle (sim/oracle.h).
  Payload capture_payload_copy(NodeId u, Round /*r*/) {
    return snapshots_.fresh(rumors_[u], rumor_count_[u]);
  }

  void deliver(NodeId u, NodeId /*peer*/, Payload payload, EdgeId /*e*/,
               Round /*start*/, Round now) {
    const Bitset::OrDelta delta = rumors_[u].or_assign_changed(payload.bits());
    if (!delta.changed) return;
    rumor_count_[u] += delta.added;
    snapshots_.invalidate(u);
    last_gain_[u] = now;
    if (!satisfied_[u]) refresh_satisfied(u);
  }

  /// Churn rejoin-with-reset — see PushPullGossip::reset_node; a
  /// rejoining flooder additionally restarts its round-robin cursor,
  /// like a freshly constructed node.
  void reset_node(NodeId u, Round r) {
    const std::size_t n = rumors_.size();
    rumors_[u].reinit(n);
    rumors_[u].set(u);
    rumor_count_[u] = 1;
    snapshots_.invalidate(u);
    next_neighbor_[u] = 0;
    const bool now_sat = node_satisfied(u);
    if (satisfied_[u] && !now_sat) {
      satisfied_[u] = false;
      --satisfied_count_;
    } else if (!satisfied_[u] && now_sat) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
    last_gain_[u] = r;
  }

  /// Freshness hook (sim/freshness.h): round of u's last rumor gain.
  Round last_gain_round(NodeId u) const { return last_gain_[u]; }

  bool done(Round /*r*/) const {
    return satisfied_count_ == satisfied_.size();
  }

  const std::vector<Bitset>& rumors() const { return rumors_; }

 private:
  bool node_satisfied(NodeId u) const {
    switch (goal_) {
      case GossipGoal::kSingleSource:
        return rumors_[u].test(source_);
      case GossipGoal::kAllToAll:
        return rumor_count_[u] == view_.num_nodes();
      case GossipGoal::kLocalBroadcast:
        for (const HalfEdge& h : view_.neighbors(u))
          if (!rumors_[u].test(h.to)) return false;
        return true;
    }
    return false;
  }

  void refresh_satisfied(NodeId u) {
    if (node_satisfied(u)) {
      satisfied_[u] = true;
      ++satisfied_count_;
    }
  }

  NetworkView view_;
  GossipGoal goal_;
  NodeId source_;
  std::vector<Bitset> rumors_;
  std::vector<std::size_t> rumor_count_;  ///< incremental cardinalities
  SnapshotCache snapshots_;
  std::vector<std::size_t> next_neighbor_;
  std::vector<bool> satisfied_;
  std::size_t satisfied_count_ = 0;
  std::vector<Round> last_gain_;  ///< freshness raw input
};

}  // namespace latgossip
