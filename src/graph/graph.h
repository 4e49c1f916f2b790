#pragma once
// Undirected graph with integer edge latencies — the substrate for every
// construction and simulation in latgossip.
//
// The paper's model (Section 1): connected undirected graph G = (V, E),
// each edge carries an integer latency >= 1 ("how many rounds it takes
// for two neighbors to exchange information"). Latencies are mutable
// after construction because the lower-bound gadgets (Section 3.2) fix
// latencies a priori from a random target set that the algorithm — but
// not the builder — must discover.
//
// Memory layout (see DESIGN.md "Graph memory layout"): WeightedGraph is
// an immutable compressed-sparse-row structure built by GraphBuilder
// (graph/builder.h). Topology lives in two flat arrays —
//
//   offsets_    : n+1 prefix sums; node u's half-edges occupy
//                 half_edges_[offsets_[u] .. offsets_[u+1])
//   half_edges_ : 2m HalfEdge records, each adjacency slice sorted by
//                 neighbor id
//   edges_      : m Edge records in insertion order (EdgeId == index)
//
// so neighbor scans are a single contiguous walk, find_edge(u, v) is an
// O(log deg) binary search in the smaller endpoint's slice, and the
// whole graph can be shared read-only across trial threads. Topology is
// frozen at build(); only per-edge latencies stay mutable (set_latency),
// because gadget reveal rewrites latencies but never edges.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/bitset.h"

namespace latgossip {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using Latency = std::int64_t;
using Round = std::int64_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// One direction of an undirected edge, as seen from the owning node.
struct HalfEdge {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

/// Full undirected edge record.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Latency latency = 1;
};

class GraphBuilder;

/// Immutable-topology CSR graph. Construct via GraphBuilder::build();
/// the public constructors only make edgeless graphs (struct members,
/// placeholders).
class WeightedGraph {
 public:
  /// Empty graph (0 nodes).
  WeightedGraph() : offsets_(1, 0) {}

  /// Graph on `n` isolated nodes (no edges can ever be added; use
  /// GraphBuilder for anything with edges).
  explicit WeightedGraph(std::size_t n);

  std::size_t num_nodes() const noexcept { return offsets_.size() - 1; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  std::span<const HalfEdge> neighbors(NodeId u) const {
    check_node(u);
    return {half_edges_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::size_t degree(NodeId u) const {
    check_node(u);
    return offsets_[u + 1] - offsets_[u];
  }

  const Edge& edge(EdgeId e) const {
    check_edge(e);
    return edges_[e];
  }

  Latency latency(EdgeId e) const { return edge(e).latency; }

  /// Other endpoint of edge `e` relative to `u`.
  NodeId other_endpoint(EdgeId e, NodeId u) const;

  /// Mutate the latency of an existing edge (used by gadget reveal and
  /// by latency-model application). Throws if latency < 1. Topology is
  /// immutable; latency is the one post-build mutable attribute.
  void set_latency(EdgeId e, Latency latency);

  /// Edge id of {u, v} if present: binary search in the smaller
  /// endpoint's sorted adjacency slice, O(log min(deg u, deg v)).
  std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const { return find_edge(u, v).has_value(); }

  std::size_t max_degree() const noexcept { return max_degree_; }
  Latency max_latency() const noexcept;
  Latency min_latency() const noexcept;

  /// True iff the graph is connected (trivially true for n <= 1).
  bool is_connected() const;

  /// Sum over u in U of deg(u) — the paper's Vol(U) (Definition 1).
  /// `in_set` marks membership; iterates set words, not individual
  /// node ids, so sparse cuts cost O(popcount + n/64).
  std::size_t volume(const Bitset& in_set) const;

  const std::vector<Edge>& edges() const noexcept { return edges_; }

 private:
  friend class GraphBuilder;

  WeightedGraph(std::vector<std::size_t> offsets,
                std::vector<HalfEdge> half_edges, std::vector<Edge> edges,
                std::size_t max_degree)
      : offsets_(std::move(offsets)),
        half_edges_(std::move(half_edges)),
        edges_(std::move(edges)),
        max_degree_(max_degree) {}

  void check_node(NodeId u) const {
    if (u >= num_nodes()) throw std::out_of_range("node id out of range");
  }
  void check_edge(EdgeId e) const {
    if (e >= edges_.size()) throw std::out_of_range("edge id out of range");
  }

  std::vector<std::size_t> offsets_;   ///< n+1 CSR prefix sums
  std::vector<HalfEdge> half_edges_;   ///< 2m, per-slice sorted by .to
  std::vector<Edge> edges_;            ///< m, EdgeId == index
  std::size_t max_degree_ = 0;
};

}  // namespace latgossip
