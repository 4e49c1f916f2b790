// Tests for EID (Theorem 14 / Lemma 17) and General EID (Theorem 19),
// including the Lemma 18 termination-check properties.

#include <gtest/gtest.h>

#include "analysis/distance.h"
#include "core/eid.h"
#include "core/rr_broadcast.h"
#include "core/termination.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"

namespace latgossip {
namespace {

TEST(Eid, AllToAllOnUnitClique) {
  const auto g = make_clique(12);
  Rng rng(1);
  EidOptions opts;
  opts.diameter_estimate = weighted_diameter(g);
  const EidOutcome out = run_eid(g, opts, own_id_rumors(12), rng);
  EXPECT_TRUE(out.sim.completed);
  EXPECT_GT(out.sim.rounds, 0);
}

TEST(Eid, AllToAllOnWeightedGrid) {
  auto g = make_grid(4, 4);
  Rng latr(2);
  assign_random_uniform_latency(g, 1, 5, latr);
  Rng rng(3);
  EidOptions opts;
  opts.diameter_estimate = weighted_diameter(g);
  const EidOutcome out = run_eid(g, opts, own_id_rumors(16), rng);
  EXPECT_TRUE(out.sim.completed);
}

TEST(Eid, UnderestimatedDiameterFailsGracefully) {
  // Path with heavy middle edge: estimate 1 cannot reach across.
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 20}, {2, 3, 1}});
  Rng rng(5);
  EidOptions opts;
  opts.diameter_estimate = 1;
  const EidOutcome out = run_eid(g, opts, own_id_rumors(4), rng);
  EXPECT_FALSE(out.sim.completed);
  EXPECT_TRUE(out.rumors[0].test(1));
  EXPECT_FALSE(out.rumors[0].test(3));
}

TEST(Eid, SpannerRespectsDiameterCap) {
  auto g = make_clique(10);
  Rng latr(7);
  assign_two_level_latency(g, 1, 40, 0.6, latr);
  Rng rng(9);
  EidOptions opts;
  opts.diameter_estimate = 5;
  const EidOutcome out = run_eid(g, opts, own_id_rumors(10), rng);
  for (NodeId u = 0; u < out.spanner.num_nodes(); ++u)
    for (const Arc& a : out.spanner.out_arcs(u)) EXPECT_LE(a.latency, 5);
}

TEST(Eid, ValidatesInput) {
  const auto g = make_path(3);
  Rng rng(1);
  EidOptions bad;
  bad.diameter_estimate = 0;
  EXPECT_THROW(run_eid(g, bad, own_id_rumors(3), rng),
               std::invalid_argument);
  EidOptions ok;
  ok.diameter_estimate = 2;
  EXPECT_THROW(run_eid(g, ok, own_id_rumors(2), rng),
               std::invalid_argument);
}

TEST(GeneralEid, ConvergesOnUnitPath) {
  const auto g = make_path(8);
  Rng rng(11);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_TRUE(out.checks_unanimous);
  // DTG relays transitively within a session, so on a unit graph even a
  // small estimate can complete; the estimate never overshoots 2D.
  EXPECT_LE(out.final_estimate, 16);
}

TEST(GeneralEid, HeavyBridgeForcesDoubling) {
  // No rumor can cross a latency-20 bridge while the estimate k < 20 —
  // every algorithm phase ignores edges slower than k — so the doubling
  // must reach at least 32.
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 20}, {2, 3, 1}});
  Rng rng(12);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_GE(out.final_estimate, 20);
  EXPECT_GE(out.attempts, 6u);  // k = 1,2,4,8,16,32
}

TEST(GeneralEid, ConvergesOnWeightedRingOfCliques) {
  const auto g = make_ring_of_cliques(4, 4, 6);
  Rng rng(13);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));
  EXPECT_TRUE(out.checks_unanimous);
  EXPECT_GT(out.attempts, 1u);  // must have doubled at least once
}

TEST(GeneralEid, Lemma18NoEarlyTermination) {
  // Success implies every node exchanged rumors with every other node.
  Rng gen(17);
  auto g = make_erdos_renyi(14, 0.3, gen);
  assign_random_uniform_latency(g, 1, 8, gen);
  Rng rng(19);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(all_sets_full(out.rumors));  // part 1 of Lemma 18
  EXPECT_TRUE(out.checks_unanimous);       // part 2 of Lemma 18
}

TEST(GeneralEid, SpentBudgetStopsTheDoubling) {
  // The heavy bridge needs k >= 20, far past a 100-round budget: the
  // run stops where the budget ran out, mid-attempt, unsuccessful.
  const auto g = build_graph(4, {{0, 1, 1}, {1, 2, 20}, {2, 3, 1}});
  CompositeContext ctx;
  ctx.rounds_left = 100;
  Rng rng(12);
  const DoublingOutcome out = run_general_eid(g, 0, rng, 1, &ctx);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.sim.completed);
  EXPECT_EQ(out.sim.rounds, 100);
  EXPECT_EQ(ctx.clock(), 100);
  EXPECT_EQ(ctx.rounds_left, 0);
  EXPECT_LT(out.attempts, 6u);
}

TEST(GeneralEid, SingleNodeTrivial) {
  const WeightedGraph g(1);
  Rng rng(23);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.sim.completed);
}

TEST(GeneralEid, CompletedMatchesSuccessOnRandomGraphs) {
  // On a connected graph a passing check means every set is full
  // (Lemma 18), so the run's one completion flag is its success.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng gen(seed);
    auto g = make_erdos_renyi(24, 0.2, gen);
    assign_random_uniform_latency(g, 1, 6, gen);
    Rng rng(seed + 100);
    const DoublingOutcome out = run_general_eid(g, 0, rng);
    EXPECT_TRUE(out.success) << "seed " << seed;
    EXPECT_EQ(out.sim.completed, out.success) << "seed " << seed;
  }
}

TEST(TerminationCheck, PassesWhenSetsCompleteAndEqual) {
  const auto g = make_clique(5);
  std::vector<Bitset> rumors(5, Bitset(5));
  for (auto& b : rumors) b.set_all();
  auto broadcast = [&]() {
    // Perfect broadcast primitive: everyone hears everyone.
    std::vector<Bitset> heard(5, Bitset(5));
    for (auto& b : heard) b.set_all();
    return std::make_pair(heard, SimResult{});
  };
  const CheckOutcome out = run_termination_check(g, rumors, broadcast);
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.unanimous);
}

TEST(TerminationCheck, FailsOnMissingNeighbor) {
  const auto g = make_path(3);
  auto rumors = own_id_rumors(3);  // nobody heard anyone: flags everywhere
  auto broadcast = [&]() {
    std::vector<Bitset> heard(3, Bitset(3));
    for (auto& b : heard) b.set_all();
    return std::make_pair(heard, SimResult{});
  };
  const CheckOutcome out = run_termination_check(g, rumors, broadcast);
  EXPECT_TRUE(out.failed);
  EXPECT_TRUE(out.unanimous);
}

TEST(TerminationCheck, FailsOnRumorSetMismatch) {
  const auto g = make_clique(4);
  std::vector<Bitset> rumors(4, Bitset(4));
  for (auto& b : rumors) b.set_all();
  rumors[2].reset(3);  // node 2 disagrees (and lacks neighbor 3)
  auto broadcast = [&]() {
    std::vector<Bitset> heard(4, Bitset(4));
    for (auto& b : heard) b.set_all();
    return std::make_pair(heard, SimResult{});
  };
  const CheckOutcome out = run_termination_check(g, rumors, broadcast);
  EXPECT_TRUE(out.failed);
  EXPECT_TRUE(out.unanimous);
}

TEST(TerminationCheck, DetectsDisagreementWithPartialReachability) {
  // Two cliques with a slow bridge: the broadcast primitive only covers
  // each side. Both sides see a flagged node (the bridge endpoints miss
  // their cross-bridge neighbor), so both fail — unanimity holds exactly
  // as argued for Lemma 18.
  const auto g = make_dumbbell(3, 1, 50);
  const std::size_t n = g.num_nodes();
  auto rumors = own_id_rumors(n);
  // Each side heard its own clique only.
  for (NodeId v = 0; v < n; ++v)
    for (NodeId u = 0; u < n; ++u)
      if ((v < 3) == (u < 3)) rumors[v].set(u);
  auto broadcast = [&]() {
    std::vector<Bitset> heard = rumors;
    return std::make_pair(heard, SimResult{});
  };
  const CheckOutcome out = run_termination_check(g, rumors, broadcast);
  EXPECT_TRUE(out.failed);
  EXPECT_TRUE(out.unanimous);
}

}  // namespace
}  // namespace latgossip
