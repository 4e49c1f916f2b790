#pragma once
// Mutable construction phase for WeightedGraph.
//
// GraphBuilder is the only way to make a graph with edges: it accepts
// add_edge() in any order, validates eagerly what one edge can show
// (self-loops, out-of-range endpoints, latency < 1 — each throws
// std::invalid_argument / std::out_of_range and leaves the builder
// unchanged), and build() freezes the accumulated edge list into the
// immutable CSR WeightedGraph (graph.h), rejecting duplicate edges.
//
// Edge ids are assigned in insertion order and survive build()
// unchanged — constructions that encode meaning in edge ids (the
// guessing gadget's row-major cross edges) rely on this. Adjacency
// order does NOT survive: build() sorts every adjacency slice by
// neighbor id, so the finished graph is independent of insertion order
// (covered by graph_builder_test).
//
// No hash index exists at any point: build() finds duplicates with one
// scan of the sorted slices. Generators that must reject a duplicate
// mid-build keep their own set of the edges they drew.

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "graph/graph.h"

namespace latgossip {

class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Start a graph on `n` isolated nodes.
  explicit GraphBuilder(std::size_t n);

  std::size_t num_nodes() const noexcept { return num_nodes_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Append one isolated node; returns its id.
  NodeId add_node();

  /// Add undirected edge {u, v} with the given latency.
  /// Throws on self-loops, out-of-range endpoints, or latency < 1 (a
  /// duplicate is build()'s). Returns the new edge's id (== index).
  EdgeId add_edge(NodeId u, NodeId v, Latency latency = 1);

  /// Re-assign the latency of an already-added edge (gadget builders
  /// add first, reveal fast latencies after). Throws if latency < 1.
  void set_latency(EdgeId e, Latency latency);

  /// Edges added so far, in insertion order (EdgeId == index).
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Freeze into an immutable CSR WeightedGraph, or throw
  /// std::invalid_argument("duplicate edge at edge N"): N is the smallest
  /// id that repeats an earlier edge in either orientation. Either way
  /// the builder is left empty (0 nodes, 0 edges) and may be reused.
  WeightedGraph build();

 private:
  void check_node(NodeId u) const {
    if (u >= num_nodes_) throw std::out_of_range("node id out of range");
  }

  std::size_t num_nodes_ = 0;
  std::vector<Edge> edges_;
};

/// One-shot convenience: build a graph from a fixed edge list.
///     auto g = build_graph(4, {{0, 1}, {1, 2, 5}});
/// (Edge latency defaults to 1.)
WeightedGraph build_graph(std::size_t n, std::initializer_list<Edge> edges);

}  // namespace latgossip
