#include "graph/builder.h"

#include <algorithm>
#include <string>

namespace latgossip {

GraphBuilder::GraphBuilder(std::size_t n) : num_nodes_(n) {
  if (n > static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
}

NodeId GraphBuilder::add_node() {
  if (num_nodes_ >= static_cast<std::size_t>(kInvalidNode))
    throw std::invalid_argument("graph too large for NodeId");
  return static_cast<NodeId>(num_nodes_++);
}

EdgeId GraphBuilder::add_edge(NodeId u, NodeId v, Latency latency) {
  check_node(u);
  check_node(v);
  if (u == v) throw std::invalid_argument("self-loops are not allowed");
  if (latency < 1) throw std::invalid_argument("latency must be >= 1");
  if (edges_.size() >= static_cast<std::size_t>(kInvalidEdge))
    throw std::invalid_argument("graph too large for EdgeId");
  const auto e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, latency});
  return e;
}

void GraphBuilder::set_latency(EdgeId e, Latency latency) {
  if (e >= edges_.size()) throw std::out_of_range("edge id out of range");
  if (latency < 1) throw std::invalid_argument("latency must be >= 1");
  edges_[e].latency = latency;
}

WeightedGraph GraphBuilder::build() {
  const std::size_t n = num_nodes_;
  std::vector<Edge> edges = std::move(edges_);
  edges_.clear();
  num_nodes_ = 0;

  // Counting sort of half-edges into CSR slices.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  std::size_t max_degree = 0;
  for (std::size_t u = 0; u < n; ++u) {
    max_degree = std::max(max_degree, offsets[u + 1]);
    offsets[u + 1] += offsets[u];
  }
  std::vector<HalfEdge> half_edges(2 * edges.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    half_edges[cursor[edges[e].u]++] = HalfEdge{edges[e].v, e};
    half_edges[cursor[edges[e].v]++] = HalfEdge{edges[e].u, e};
  }
  // Sort each adjacency slice by neighbor id — this is what makes the
  // finished graph independent of insertion order and find_edge a
  // binary search. Parallel edges end up adjacent, ordered by edge id
  // (not by the sort's stability), so each id after the first of a run
  // repeats an earlier edge; the smallest of those is reported.
  EdgeId duplicate = kInvalidEdge;
  for (std::size_t u = 0; u < n; ++u) {
    std::sort(half_edges.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
              half_edges.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]),
              [](const HalfEdge& a, const HalfEdge& b) {
                return a.to < b.to || (a.to == b.to && a.edge < b.edge);
              });
    for (std::size_t i = offsets[u] + 1; i < offsets[u + 1]; ++i)
      if (half_edges[i].to == half_edges[i - 1].to)
        duplicate = std::min(duplicate, half_edges[i].edge);
  }
  if (duplicate != kInvalidEdge)
    throw std::invalid_argument("duplicate edge at edge " +
                                std::to_string(duplicate));

  return WeightedGraph(std::move(offsets), std::move(half_edges),
                       std::move(edges), max_degree);
}

WeightedGraph build_graph(std::size_t n, std::initializer_list<Edge> edges) {
  GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.latency);
  return b.build();
}

}  // namespace latgossip
