// Property-based / parameterized sweeps (gtest TEST_P): algorithm
// invariants checked across a grid of (graph family, latency model,
// seed) combinations.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/conductance.h"
#include "analysis/distance.h"
#include "analysis/spanner_check.h"
#include "core/dtg.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "core/tk_schedule.h"
#include "sim/dynamics.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

enum class Family { kClique, kCycle, kGrid, kErdosRenyi, kRingOfCliques,
                    kStar, kBinaryTree, kBarabasiAlbert, kPathOfCliques,
                    kKaryTree };
enum class LatModel { kUnit, kUniformRandom, kTwoLevel };

std::string family_name(Family f) {
  switch (f) {
    case Family::kClique: return "clique";
    case Family::kCycle: return "cycle";
    case Family::kGrid: return "grid";
    case Family::kErdosRenyi: return "er";
    case Family::kRingOfCliques: return "ringcliques";
    case Family::kStar: return "star";
    case Family::kBinaryTree: return "btree";
    case Family::kBarabasiAlbert: return "ba";
    case Family::kPathOfCliques: return "pathcliques";
    case Family::kKaryTree: return "karytree";
  }
  return "?";
}

std::string model_name(LatModel m) {
  switch (m) {
    case LatModel::kUnit: return "unit";
    case LatModel::kUniformRandom: return "uniform";
    case LatModel::kTwoLevel: return "twolevel";
  }
  return "?";
}

WeightedGraph build(Family f, LatModel m, std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph g = [&]() {
    switch (f) {
      case Family::kClique: return make_clique(14);
      case Family::kCycle: return make_cycle(14);
      case Family::kGrid: return make_grid(4, 4);
      case Family::kErdosRenyi: return make_erdos_renyi(14, 0.35, rng);
      case Family::kRingOfCliques: return make_ring_of_cliques(3, 4);
      case Family::kStar: return make_star(14);
      case Family::kBinaryTree: return make_binary_tree(15);
      case Family::kBarabasiAlbert: return make_barabasi_albert(14, 2, rng);
      case Family::kPathOfCliques: return make_path_of_cliques(3, 5);
      case Family::kKaryTree: return make_kary_tree(13, 3);
    }
    return make_path(2);
  }();
  switch (m) {
    case LatModel::kUnit:
      break;
    case LatModel::kUniformRandom:
      assign_random_uniform_latency(g, 1, 6, rng);
      break;
    case LatModel::kTwoLevel:
      assign_two_level_latency(g, 1, 8, 0.4, rng);
      break;
  }
  return g;
}

using SweepParam = std::tuple<Family, LatModel, std::uint64_t>;

class DisseminationSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DisseminationSweep, PushPullReachesEveryone) {
  const auto [family, model, seed] = GetParam();
  const auto g = build(family, model, seed);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(seed * 31 + 7));
  SimOptions opts;
  opts.max_rounds = 1'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_TRUE(proto.informed(v));
}

TEST_P(DisseminationSweep, FloodingAllToAllCompletes) {
  const auto [family, model, seed] = GetParam();
  const auto g = build(family, model, seed);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                       own_id_rumors(g.num_nodes()), Rng{},
                       ContactRule::kRoundRobin);
  SimOptions opts;
  opts.max_rounds = 1'000'000;
  ASSERT_TRUE(run_gossip(g, proto, opts).completed);
  EXPECT_TRUE(all_sets_full(proto.rumors()));
}

TEST_P(DisseminationSweep, DtgAchievesLocalBroadcast) {
  const auto [family, model, seed] = GetParam();
  const auto g = build(family, model, seed);
  const Latency ell = g.max_latency();
  NetworkView view(g, true);
  DtgLocalBroadcast proto(view, ell,
                          own_id_rumors(g.num_nodes()));
  SimOptions opts;
  opts.stop_when_idle = false;
  opts.max_rounds = 1'000'000;
  ASSERT_TRUE(run_gossip(g, proto, opts).completed);
  EXPECT_TRUE(local_broadcast_complete(g, proto.rumors()));
}

TEST_P(DisseminationSweep, GeneralEidTerminatesCorrectly) {
  const auto [family, model, seed] = GetParam();
  const auto g = build(family, model, seed);
  Rng rng(seed * 17 + 3);
  const DoublingOutcome out = run_general_eid(g, 0, rng);
  ASSERT_TRUE(out.success);
  // Lemma 18 part 1: termination only with complete exchange.
  EXPECT_TRUE(all_sets_full(out.rumors));
  // Lemma 18 part 2: every check verdict was unanimous.
  EXPECT_TRUE(out.checks_unanimous);
}

TEST_P(DisseminationSweep, TkScheduleAtDiameterSolvesAllToAll) {
  const auto [family, model, seed] = GetParam();
  const auto g = build(family, model, seed);
  const Latency d = weighted_diameter(g);
  const TkOutcome out = run_tk_schedule(g, d, own_id_rumors(g.num_nodes()));
  EXPECT_TRUE(out.sim.completed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DisseminationSweep,
    ::testing::Combine(::testing::Values(Family::kClique, Family::kCycle,
                                         Family::kGrid, Family::kErdosRenyi,
                                         Family::kRingOfCliques,
                                         Family::kStar, Family::kBinaryTree,
                                         Family::kBarabasiAlbert,
                                         Family::kPathOfCliques,
                                         Family::kKaryTree),
                       ::testing::Values(LatModel::kUnit,
                                         LatModel::kUniformRandom,
                                         LatModel::kTwoLevel),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return family_name(std::get<0>(info.param)) + "_" +
             model_name(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------ conductance laws

class ConductanceSweep
    : public ::testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(ConductanceSweep, UnitLatencyPhiStarEqualsClassical) {
  const auto [family, seed] = GetParam();
  const auto g = build(family, LatModel::kUnit, seed);
  const auto wc = weighted_conductance_exact(g);
  EXPECT_EQ(wc.ell_star, 1);
  EXPECT_DOUBLE_EQ(wc.phi_star, conductance_exact(g).phi);
}

TEST_P(ConductanceSweep, PhiEllMonotoneNondecreasing) {
  const auto [family, seed] = GetParam();
  const auto g = build(family, LatModel::kUniformRandom, seed);
  const auto wc = weighted_conductance_exact(g);
  for (std::size_t i = 1; i < wc.phi.size(); ++i)
    EXPECT_GE(wc.phi[i], wc.phi[i - 1]);
}

TEST_P(ConductanceSweep, PhiStarRatioDominatesAllLevels) {
  const auto [family, seed] = GetParam();
  const auto g = build(family, LatModel::kTwoLevel, seed);
  const auto wc = weighted_conductance_exact(g);
  const double star_ratio =
      wc.phi_star / static_cast<double>(wc.ell_star);
  for (std::size_t i = 0; i < wc.levels.size(); ++i)
    EXPECT_GE(star_ratio + 1e-12,
              wc.phi[i] / static_cast<double>(wc.levels[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConductanceSweep,
    ::testing::Combine(::testing::Values(Family::kClique, Family::kCycle,
                                         Family::kGrid, Family::kErdosRenyi,
                                         Family::kStar),
                       ::testing::Values(3u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<Family, std::uint64_t>>&
           info) {
      return family_name(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// --------------------------------------------------------- spanner laws

class SpannerSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(SpannerSweep, StretchBoundedByTwoKMinusOne) {
  const auto [k, seed] = GetParam();
  Rng gen(seed);
  auto g = make_erdos_renyi(30, 0.25, gen);
  assign_random_uniform_latency(g, 1, 12, gen);
  Rng rng(seed * 13 + 1);
  const auto spanner = build_baswana_sen_spanner(g, {k, 0}, rng);
  const auto stats = check_spanner_exact(g, spanner);
  EXPECT_TRUE(stats.connected);
  EXPECT_LE(stats.max_stretch, static_cast<double>(2 * k - 1) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpannerSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4}),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, std::uint64_t>>&
           info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// -------------------------------------------------- RR broadcast (L15)

class RrSweep : public ::testing::TestWithParam<std::tuple<Latency,
                                                           std::uint64_t>> {};

TEST_P(RrSweep, DistanceKPairsAlwaysExchange) {
  const auto [k, seed] = GetParam();
  Rng gen(seed);
  auto g = make_erdos_renyi(16, 0.3, gen);
  assign_random_uniform_latency(g, 1, 5, gen);
  DirectedGraph overlay(g.num_nodes());
  for (const Edge& e : g.edges()) {
    overlay.add_arc(e.u, e.v, e.latency);
    overlay.add_arc(e.v, e.u, e.latency);
  }
  NetworkView view(g, true);
  RRBroadcast proto(view, overlay, k, own_id_rumors(g.num_nodes()));
  SimOptions opts;
  opts.max_rounds = proto.budget() + k + 4;
  run_gossip(g, proto, opts);
  const auto& rumors = proto.rumors();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = dijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (dist[v] != kUnreachable && dist[v] <= k) {
        EXPECT_TRUE(rumors[u].test(v));
        EXPECT_TRUE(rumors[v].test(u));
      }
  }
}

// ------------------------------------------------- robustness sweeps

class FaultSweep
    : public ::testing::TestWithParam<std::tuple<Family, int, std::uint64_t>> {
};

TEST_P(FaultSweep, PushPullCompletesUnderLinkLoss) {
  const auto [family, drop_pct, seed] = GetParam();
  const auto g = build(family, LatModel::kTwoLevel, seed);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(seed * 101 + 1));
  DynamicSpec lossy;
  lossy.drop_prob = drop_pct / 100.0;
  lossy.fault_seed = seed * 103 + 5;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), lossy);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 2'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
}

TEST_P(FaultSweep, FloodingCompletesUnderLinkLoss) {
  const auto [family, drop_pct, seed] = GetParam();
  const auto g = build(family, LatModel::kUnit, seed);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                       own_id_rumors(g.num_nodes()), Rng{},
                       ContactRule::kRoundRobin);
  DynamicSpec lossy;
  lossy.drop_prob = drop_pct / 100.0;
  lossy.fault_seed = seed * 107 + 9;
  DynamicPlan plan(g.num_nodes(), g.num_edges(), lossy);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 2'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(all_sets_full(proto.rumors()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSweep,
    ::testing::Combine(::testing::Values(Family::kClique, Family::kGrid,
                                         Family::kErdosRenyi,
                                         Family::kBarabasiAlbert),
                       ::testing::Values(10, 30),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<Family, int, std::uint64_t>>&
           info) {
      return family_name(std::get<0>(info.param)) + "_drop" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class BlockingSweep
    : public ::testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(BlockingSweep, PushPullCompletesInBlockingModel) {
  const auto [family, seed] = GetParam();
  const auto g = build(family, LatModel::kUniformRandom, seed);
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(seed * 109 + 3));
  SimOptions opts;
  opts.blocking = true;
  opts.max_rounds = 2'000'000;
  EXPECT_TRUE(run_gossip(g, proto, opts).completed);
}

TEST_P(BlockingSweep, TkScheduleCorrectInBlockingModel) {
  // Appendix E explicitly claims T(k) works with blocking communication.
  const auto [family, seed] = GetParam();
  const auto g = build(family, LatModel::kUniformRandom, seed);
  const Latency d = weighted_diameter(g);
  // Re-run the schedule under blocking by driving DTG passes manually.
  auto rumors = own_id_rumors(g.num_nodes());
  NetworkView view(g, true);
  for (Latency ell : tk_pattern(next_power_of_two(d))) {
    DtgLocalBroadcast dtg(view, ell, std::move(rumors));
    SimOptions opts;
    opts.blocking = true;
    opts.stop_when_idle = false;
    opts.max_rounds = 2'000'000;
    ASSERT_TRUE(run_gossip(g, dtg, opts).completed);
    rumors = dtg.take_rumors();
  }
  EXPECT_TRUE(all_sets_full(rumors));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockingSweep,
    ::testing::Combine(::testing::Values(Family::kClique, Family::kCycle,
                                         Family::kGrid,
                                         Family::kPathOfCliques),
                       ::testing::Values(3u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<Family, std::uint64_t>>&
           info) {
      return family_name(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, RrSweep,
    ::testing::Combine(::testing::Values(Latency{2}, Latency{5}, Latency{9}),
                       ::testing::Values(5u, 6u)),
    [](const ::testing::TestParamInfo<std::tuple<Latency, std::uint64_t>>&
           info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace latgossip
