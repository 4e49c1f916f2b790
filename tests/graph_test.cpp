// Unit tests for the CSR WeightedGraph, GraphBuilder, and DirectedGraph.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace latgossip {
namespace {

TEST(WeightedGraph, EmptyGraph) {
  WeightedGraph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(WeightedGraph().is_connected());
  EXPECT_EQ(GraphBuilder(0).build().num_nodes(), 0u);
}

TEST(GraphBuilder, AddEdgeBasics) {
  GraphBuilder b(3);
  const EdgeId e = b.add_edge(0, 1, 5);
  EXPECT_EQ(b.num_edges(), 1u);
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.latency(e), 5);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.other_endpoint(e, 0), 1u);
  EXPECT_EQ(g.other_endpoint(e, 1), 0u);
  EXPECT_THROW(g.other_endpoint(e, 2), std::invalid_argument);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicateEitherOrientation) {
  for (const NodeId u : {0u, 1u}) {
    GraphBuilder b(3);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(u, 1 - u);  // accepted here, rejected by build()
    try {
      b.build();
      ADD_FAILURE() << "duplicate {" << u << ", " << 1 - u << "} was built";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "duplicate edge at edge 2");
    }
  }
}

// The reported id is the second-smallest id among the copies of an
// edge — the first one added as a duplicate — whatever the order of the
// copies, their orientation, or the sort's handling of ties.
TEST(GraphBuilder, DuplicateReportsFirstRepeatAndLeavesBuilderReusable) {
  constexpr std::size_t kEdges = 200;
  constexpr std::size_t kCopies = 40;
  // kCopies copies of {0, 1} among a path 2 - 3 - ... over the other
  // nodes, at ids scattered by a fixed shuffle.
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < kCopies; ++i)
    edges.push_back(i % 2 == 0 ? Edge{0, 1, 1} : Edge{1, 0, 3});
  for (NodeId v = 2; edges.size() < kEdges; ++v)
    edges.push_back({v, v + 1, 2});
  Rng rng(17);
  rng.shuffle(edges);
  std::vector<EdgeId> copy_ids;
  for (EdgeId e = 0; e < edges.size(); ++e)
    if (edges[e].u + edges[e].v == 1) copy_ids.push_back(e);
  ASSERT_EQ(copy_ids.size(), kCopies);
  ASSERT_GT(copy_ids[1], 1u);  // the shuffle moved the copies

  GraphBuilder b(kEdges);
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.latency);
  try {
    b.build();
    ADD_FAILURE() << kCopies << " copies of {0, 1} were built";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "duplicate edge at edge " + std::to_string(copy_ids[1]));
  }
  EXPECT_EQ(b.num_nodes(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
  b.add_node();
  b.add_node();
  b.add_edge(1, 0, 4);
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.latency(*g.find_edge(0, 1)), 4);
}

TEST(GraphBuilder, RejectsBadLatency) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -3), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
}

TEST(GraphBuilder, HasEdgeMidBuildAndSetLatency) {
  GraphBuilder b(3);
  const EdgeId e = b.add_edge(0, 1, 4);
  b.set_latency(e, 9);
  EXPECT_THROW(b.set_latency(e, 0), std::invalid_argument);
  EXPECT_THROW(b.set_latency(5, 1), std::out_of_range);
  EXPECT_EQ(b.build().latency(e), 9);
}

TEST(GraphBuilder, AddNodeGrowsGraph) {
  GraphBuilder b(1);
  const NodeId v = b.add_node();
  EXPECT_EQ(v, 1u);
  b.add_edge(0, v);
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(GraphBuilder, BuildResetsBuilderForReuse) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const WeightedGraph first = b.build();
  EXPECT_EQ(first.num_edges(), 1u);
  EXPECT_EQ(b.num_nodes(), 0u);
  EXPECT_EQ(b.num_edges(), 0u);
  // Reusable: start over with fresh ids.
  b.add_node();
  b.add_node();
  b.add_edge(0, 1, 3);
  EXPECT_EQ(b.build().latency(0), 3);
}

TEST(GraphBuilder, BuildGraphHelper) {
  const auto g = build_graph(3, {{0, 1}, {1, 2, 7}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.latency(*g.find_edge(1, 2)), 7);
  EXPECT_EQ(g.latency(*g.find_edge(0, 1)), 1);
}

TEST(WeightedGraph, FindEdgeBothDirections) {
  GraphBuilder b(4);
  const EdgeId e = b.add_edge(2, 3, 7);
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.find_edge(2, 3), e);
  EXPECT_EQ(g.find_edge(3, 2), e);
  EXPECT_FALSE(g.find_edge(0, 1).has_value());
  EXPECT_FALSE(g.find_edge(2, 2).has_value());
  EXPECT_THROW((void)g.find_edge(0, 4), std::out_of_range);
}

TEST(WeightedGraph, SetLatencyMutates) {
  GraphBuilder b(2);
  const EdgeId e = b.add_edge(0, 1, 1);
  WeightedGraph g = b.build();
  g.set_latency(e, 9);
  EXPECT_EQ(g.latency(e), 9);
  EXPECT_THROW(g.set_latency(e, 0), std::invalid_argument);
}

TEST(WeightedGraph, DegreeAndLatencyExtremes) {
  const auto g = build_graph(4, {{0, 1, 2}, {0, 2, 8}, {0, 3, 5}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.max_latency(), 8);
  EXPECT_EQ(g.min_latency(), 2);
}

TEST(WeightedGraph, ConnectivityDetection) {
  EXPECT_FALSE(build_graph(4, {{0, 1}, {2, 3}}).is_connected());
  EXPECT_TRUE(build_graph(4, {{0, 1}, {2, 3}, {1, 2}}).is_connected());
}

TEST(WeightedGraph, VolumeMatchesDefinition) {
  // Path 0-1-2: deg = 1,2,1.
  const auto g = build_graph(3, {{0, 1}, {1, 2}});
  Bitset s(3);
  s.set(0);
  EXPECT_EQ(g.volume(s), 1u);
  s.set(1);
  EXPECT_EQ(g.volume(s), 3u);
  s.set(2);
  EXPECT_EQ(g.volume(s), 4u);  // = 2|E|
  EXPECT_THROW(g.volume(Bitset(1)), std::invalid_argument);
}

TEST(WeightedGraph, AdjacencySortedByNeighborId) {
  // Insert edges in scrambled order; neighbors() must come back sorted
  // by neighbor id regardless.
  GraphBuilder b(5);
  b.add_edge(0, 3, 2);
  b.add_edge(0, 1, 4);
  b.add_edge(0, 4, 9);
  b.add_edge(0, 2, 6);
  const WeightedGraph g = b.build();
  const auto neigh = g.neighbors(0);
  ASSERT_EQ(neigh.size(), 4u);
  for (std::size_t i = 0; i < neigh.size(); ++i)
    EXPECT_EQ(neigh[i].to, i + 1);
  EXPECT_EQ(g.latency(neigh[1].edge), 6);  // edge {0,2}
}

TEST(WeightedGraph, EdgeIdsPreserveInsertionOrder) {
  GraphBuilder b(4);
  const EdgeId e0 = b.add_edge(2, 3, 5);
  const EdgeId e1 = b.add_edge(0, 1, 6);
  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e1, 1u);
  const WeightedGraph g = b.build();
  EXPECT_EQ(g.edge(0).u, 2u);
  EXPECT_EQ(g.edge(0).v, 3u);
  EXPECT_EQ(g.edge(1).u, 0u);
  EXPECT_EQ(g.edge(1).v, 1u);
}

TEST(DirectedGraph, ArcBasics) {
  DirectedGraph d(3);
  d.add_arc(0, 1, 2);
  d.add_arc(0, 2, 3);
  d.add_arc(2, 0, 1);
  EXPECT_EQ(d.num_arcs(), 3u);
  EXPECT_EQ(d.out_degree(0), 2u);
  EXPECT_EQ(d.out_degree(1), 0u);
  EXPECT_EQ(d.max_out_degree(), 2u);
  EXPECT_THROW(d.add_arc(1, 1, 1), std::invalid_argument);
  EXPECT_THROW(d.add_arc(0, 1, 0), std::invalid_argument);
}

TEST(DirectedGraph, ToUndirectedCollapsesOppositeArcs) {
  DirectedGraph d(3);
  d.add_arc(0, 1, 5);
  d.add_arc(1, 0, 3);  // opposite direction, smaller latency wins
  d.add_arc(1, 2, 7);
  const WeightedGraph g = d.to_undirected();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.latency(*g.find_edge(0, 1)), 3);
  EXPECT_EQ(g.latency(*g.find_edge(1, 2)), 7);
}

TEST(DirectedGraph, ToUndirectedCollapsesParallelArcs) {
  DirectedGraph d(4);
  d.add_arc(2, 1, 9);
  d.add_arc(2, 1, 4);  // same direction, duplicate arc
  d.add_arc(1, 2, 6);
  d.add_arc(3, 0, 2);
  const WeightedGraph g = d.to_undirected();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.latency(*g.find_edge(1, 2)), 4);
  EXPECT_EQ(g.latency(*g.find_edge(0, 3)), 2);
}

}  // namespace
}  // namespace latgossip
