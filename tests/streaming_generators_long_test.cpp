// Million-node smoke for the graph builder and the seeded samplers
// (built only when LATGOSSIP_LONG_TESTS is ON; run via `ctest -L long`).
// The quick suite proves the algebra on small graphs; this leg proves
// the one GraphBuilder and the samplers deliver 10^6 nodes, built and
// checked for duplicates without a hash index.

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace latgossip {
namespace {

constexpr std::size_t kMillion = 1'000'000;

TEST(StreamingMillionNode, Ring) {
  const auto g = make_cycle(kMillion);
  EXPECT_EQ(g.num_nodes(), kMillion);
  EXPECT_EQ(g.num_edges(), kMillion);
  for (NodeId u = 0; u < kMillion; u += 99991) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_TRUE(g.is_connected());
}

TEST(StreamingMillionNode, RandomRegular) {
  const auto g = make_random_regular_streaming(kMillion, 8, 0x106f);
  EXPECT_EQ(g.num_nodes(), kMillion);
  EXPECT_EQ(g.num_edges(), kMillion * 4);
  for (NodeId u = 0; u < kMillion; ++u)
    ASSERT_EQ(g.degree(u), 8u) << "node " << u;
  EXPECT_TRUE(g.is_connected());
}

TEST(StreamingMillionNode, ErdosRenyi) {
  // p = 16/n sits comfortably above the ln(n)/n connectivity threshold.
  const double p = 16.0 / static_cast<double>(kMillion);
  const auto g = make_erdos_renyi_streaming(kMillion, p, 0x106f);
  EXPECT_EQ(g.num_nodes(), kMillion);
  EXPECT_TRUE(g.is_connected());
  // Mean edges = p * n(n-1)/2 ~ 8e6; allow wide slack.
  EXPECT_GT(g.num_edges(), 7'500'000u);
  EXPECT_LT(g.num_edges(), 8'500'000u);
}

}  // namespace
}  // namespace latgossip
