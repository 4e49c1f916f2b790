// Tests for the seeded million-node samplers (graph/generators.h):
// make_erdos_renyi_streaming at p = 1 is the clique, and both samplers
// keep their structural invariants and are deterministic in the seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "graph/generators.h"

namespace latgossip {
namespace {

// Every observable array of the CSR: node/edge counts, the edge list in
// id order (endpoints + latency), and each adjacency slice (neighbor and
// edge id per half-edge).
void expect_identical(const WeightedGraph& a, const WeightedGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    ASSERT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    ASSERT_EQ(a.edge(e).latency, b.edge(e).latency) << "edge " << e;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.neighbors(u), nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i].to, nb[i].to) << "node " << u << " slot " << i;
      ASSERT_EQ(na[i].edge, nb[i].edge) << "node " << u << " slot " << i;
    }
  }
  ASSERT_EQ(a.max_degree(), b.max_degree());
}

TEST(StreamingGenerators, FullDensityErMatchesClique) {
  expect_identical(make_erdos_renyi_streaming(40, 1.0, 9), make_clique(40));
}

TEST(StreamingGenerators, ErdosRenyiInvariants) {
  const std::size_t n = 200;
  const double p = 0.1;
  const auto g = make_erdos_renyi_streaming(n, p, 0x5eed);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_TRUE(g.is_connected());
  // Binomial(19900, 0.1): mean 1990, sd ~42. ±10 sd keeps this test
  // deterministic-by-seed yet meaningful.
  EXPECT_GT(g.num_edges(), 1570u);
  EXPECT_LT(g.num_edges(), 2410u);
  EXPECT_THROW(make_erdos_renyi_streaming(10, 1.5, 0), std::invalid_argument);
  // p = 0 on n > 1 can never connect: the attempt budget must trip.
  EXPECT_THROW(make_erdos_renyi_streaming(10, 0.0, 0, 4), std::runtime_error);
  EXPECT_EQ(make_erdos_renyi_streaming(1, 0.0, 0).num_nodes(), 1u);
}

TEST(StreamingGenerators, ErdosRenyiDeterministicInSeed) {
  const auto a = make_erdos_renyi_streaming(300, 0.05, 77);
  const auto b = make_erdos_renyi_streaming(300, 0.05, 77);
  expect_identical(a, b);
  const auto c = make_erdos_renyi_streaming(300, 0.05, 78);
  EXPECT_FALSE(a.num_edges() == c.num_edges() &&
               [&] {
                 for (EdgeId e = 0; e < a.num_edges(); ++e)
                   if (a.edge(e).u != c.edge(e).u || a.edge(e).v != c.edge(e).v)
                     return false;
                 return true;
               }());
}

TEST(StreamingGenerators, RandomRegularInvariants) {
  const std::size_t n = 1000, d = 6;
  const auto g = make_random_regular_streaming(n, d, 0xABCD);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(g.num_edges(), n * d / 2);
  EXPECT_TRUE(g.is_connected());
  for (NodeId u = 0; u < n; ++u) ASSERT_EQ(g.degree(u), d) << "node " << u;
  EXPECT_THROW(make_random_regular_streaming(5, 5, 0), std::invalid_argument);
  EXPECT_THROW(make_random_regular_streaming(5, 3, 0), std::invalid_argument);
  EXPECT_THROW(make_random_regular_streaming(5, 0, 0), std::invalid_argument);
}

TEST(StreamingGenerators, RandomRegularOddDegreeAndSmallCases) {
  // d odd (n even) exercises the repair path's parity handling.
  const auto g = make_random_regular_streaming(100, 3, 7);
  for (NodeId u = 0; u < 100; ++u) ASSERT_EQ(g.degree(u), 3u);
  EXPECT_TRUE(g.is_connected());
  // d = n-1 is the clique; the pairing has no freedom left.
  const auto k = make_random_regular_streaming(6, 5, 1);
  EXPECT_EQ(k.num_edges(), 15u);
  for (NodeId u = 0; u < 6; ++u) ASSERT_EQ(k.degree(u), 5u);
}

TEST(StreamingGenerators, RandomRegularDeterministicInSeed) {
  const auto a = make_random_regular_streaming(400, 4, 99);
  const auto b = make_random_regular_streaming(400, 4, 99);
  expect_identical(a, b);
}

}  // namespace
}  // namespace latgossip
