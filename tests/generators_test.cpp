// Unit tests for graph generators and latency models.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "graph/latency_models.h"

namespace latgossip {
namespace {

TEST(Generators, Path) {
  const auto g = make_path(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, SingleNodePath) {
  const auto g = make_path(1);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, Cycle) {
  const auto g = make_cycle(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(Generators, Star) {
  const auto g = make_star(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(g.max_degree(), 6u);
}

TEST(Generators, Clique) {
  const auto g = make_clique(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Generators, CompleteBipartite) {
  const auto g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.degree(0), 4u);  // left side
  EXPECT_EQ(g.degree(3), 3u);  // right side
  EXPECT_FALSE(g.has_edge(0, 1));  // no intra-side edges
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(Generators, Grid) {
  const auto g = make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // rows*(cols-1)+ (rows-1)*cols
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, Torus) {
  const auto g = make_grid(3, 3, /*wrap=*/true);
  EXPECT_EQ(g.num_edges(), 18u);
  for (NodeId v = 0; v < 9; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, Hypercube) {
  const auto g = make_hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, BinaryTree) {
  const auto g = make_binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.degree(6), 1u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, ErdosRenyiConnected) {
  Rng rng(5);
  const auto g = make_erdos_renyi(40, 0.2, rng);
  EXPECT_EQ(g.num_nodes(), 40u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, ErdosRenyiRejectsBadP) {
  Rng rng(5);
  EXPECT_THROW(make_erdos_renyi(10, 1.5, rng), std::invalid_argument);
}

TEST(Generators, RandomRegularDegreesExact) {
  Rng rng(11);
  const auto g = make_random_regular(20, 4, rng);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Generators, RandomRegularValidatesParity) {
  Rng rng(11);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);
  EXPECT_THROW(make_random_regular(5, 5, rng), std::invalid_argument);
}

TEST(Generators, WattsStrogatz) {
  Rng rng(13);
  const auto g = make_watts_strogatz(30, 2, 0.1, rng);
  EXPECT_EQ(g.num_nodes(), 30u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GE(g.num_edges(), 30u);  // ~n*k edges, some may collide
}

TEST(Generators, RandomGeometricWithCoords) {
  Rng rng(17);
  std::vector<std::pair<double, double>> coords;
  const auto g = make_random_geometric(50, 0.35, rng, &coords);
  EXPECT_TRUE(g.is_connected());
  ASSERT_EQ(coords.size(), 50u);
  // Every edge respects the radius.
  for (const Edge& e : g.edges()) {
    const double dx = coords[e.u].first - coords[e.v].first;
    const double dy = coords[e.u].second - coords[e.v].second;
    EXPECT_LE(dx * dx + dy * dy, 0.35 * 0.35 + 1e-12);
  }
}

TEST(Generators, RingOfCliques) {
  const auto g = make_ring_of_cliques(4, 5, 9);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 4 * 10 + 4);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.max_latency(), 9);
}

TEST(Generators, Dumbbell) {
  const auto g = make_dumbbell(4, 3, 5);
  EXPECT_EQ(g.num_nodes(), 2 * 4 + 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.max_latency(), 5);
}

TEST(Generators, BarabasiAlbert) {
  Rng rng(21);
  const auto g = make_barabasi_albert(60, 2, rng);
  EXPECT_EQ(g.num_nodes(), 60u);
  EXPECT_TRUE(g.is_connected());
  // Seed clique C(2,2)=1 edge + 58 nodes * 2 attachments.
  EXPECT_EQ(g.num_edges(), 1u + 58u * 2u);
  // Preferential attachment produces a hub far above the minimum degree.
  EXPECT_GE(g.max_degree(), 8u);
  EXPECT_THROW(make_barabasi_albert(3, 3, rng), std::invalid_argument);
}

TEST(Generators, KaryTree) {
  const auto g = make_kary_tree(13, 3);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 3u);   // root has children 1,2,3
  EXPECT_EQ(g.degree(1), 4u);   // children 4,5,6 + parent
  EXPECT_EQ(g.degree(12), 1u);  // leaf
  EXPECT_THROW(make_kary_tree(5, 1), std::invalid_argument);
}

TEST(Generators, PathOfCliques) {
  const auto g = make_path_of_cliques(3, 4, 7);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 6u + 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.max_latency(), 7);
  EXPECT_THROW(make_path_of_cliques(1, 4), std::invalid_argument);
}

// rows x cols (or cliques x size) beyond the NodeId range is rejected
// before the builder is sized; 2^32 x 2^32 wraps size_t to 0, which
// would size the builder at 0 nodes.
TEST(Generators, ProductSizesRejectedBeyondNodeIdRange) {
  const std::size_t big = std::size_t{1} << 32;
  auto message = [](auto make) -> std::string {
    try {
      make();
    } catch (const std::invalid_argument& e) {
      return e.what();
    } catch (const std::exception& e) {
      return std::string("wrong exception type: ") + e.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message([&] { make_grid(big, big); }),
            "grid: node count exceeds the NodeId range");
  EXPECT_EQ(message([&] { make_grid(big, big, /*wrap=*/true); }),
            "grid: node count exceeds the NodeId range");
  EXPECT_EQ(message([&] { make_grid(65536, 65537); }),
            "grid: node count exceeds the NodeId range");
  EXPECT_EQ(message([&] { make_ring_of_cliques(big, big); }),
            "ring_of_cliques: node count exceeds the NodeId range");
  EXPECT_EQ(message([&] { make_path_of_cliques(big, big); }),
            "path_of_cliques: node count exceeds the NodeId range");
}

// --------------------------------------------------------- latency models

TEST(LatencyModels, Uniform) {
  auto g = make_cycle(5);
  assign_uniform_latency(g, 7);
  for (const Edge& e : g.edges()) EXPECT_EQ(e.latency, 7);
}

TEST(LatencyModels, RandomUniformRange) {
  auto g = make_clique(10);
  Rng rng(3);
  assign_random_uniform_latency(g, 2, 6, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.latency, 2);
    EXPECT_LE(e.latency, 6);
  }
  EXPECT_THROW(assign_random_uniform_latency(g, 5, 2, rng),
               std::invalid_argument);
}

TEST(LatencyModels, TwoLevel) {
  auto g = make_clique(20);
  Rng rng(7);
  assign_two_level_latency(g, 1, 100, 0.5, rng);
  std::size_t fast = 0, slow = 0;
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(e.latency == 1 || e.latency == 100);
    (e.latency == 1 ? fast : slow) += 1;
  }
  EXPECT_GT(fast, 0u);
  EXPECT_GT(slow, 0u);
}

TEST(LatencyModels, ParetoClamped) {
  auto g = make_clique(12);
  Rng rng(9);
  assign_pareto_latency(g, 1.5, 1.0, 50, rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.latency, 1);
    EXPECT_LE(e.latency, 50);
  }
}

TEST(LatencyModels, DistanceBased) {
  auto g = make_path(3);
  const std::vector<std::pair<double, double>> coords{
      {0.0, 0.0}, {0.3, 0.4}, {0.3, 0.4}};
  assign_distance_latency(g, coords, 10.0);
  EXPECT_EQ(g.latency(*g.find_edge(0, 1)), 5);  // 10 * 0.5
  EXPECT_EQ(g.latency(*g.find_edge(1, 2)), 1);  // clamped to >= 1
}

TEST(LatencyModels, CustomRule) {
  auto g = make_path(4);
  assign_latency(g, [](const Edge& e) {
    return static_cast<Latency>(e.u + e.v + 1);
  });
  EXPECT_EQ(g.latency(*g.find_edge(0, 1)), 2);
  EXPECT_EQ(g.latency(*g.find_edge(2, 3)), 6);
}

}  // namespace
}  // namespace latgossip
