// Tests for the randomized ℓ-local-broadcast subroutine and the EID
// discovery-phase ablation.

#include <gtest/gtest.h>

#include "analysis/distance.h"
#include "core/eid.h"
#include "core/random_local_broadcast.h"
#include "core/rr_broadcast.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

struct RlbRun {
  SimResult sim;
  std::vector<Bitset> rumors;
};

RlbRun run_rlb(const WeightedGraph& g, Latency ell, std::uint64_t seed) {
  NetworkView view(g, true);
  RandomLocalBroadcast proto(
      view, ell, own_id_rumors(g.num_nodes()),
      Rng(seed));
  SimOptions opts;
  opts.stop_when_idle = false;
  opts.max_rounds = 2'000'000;
  RlbRun run;
  run.sim = run_gossip(g, proto, opts);
  run.rumors = proto.take_rumors();
  return run;
}

TEST(RandomLocalBroadcast, CompletesOnClique) {
  const auto g = make_clique(20);
  const RlbRun run = run_rlb(g, 1, 1);
  ASSERT_TRUE(run.sim.completed);
  EXPECT_TRUE(local_broadcast_complete(g, run.rumors));
}

TEST(RandomLocalBroadcast, CompletesOnWeightedGraphs) {
  Rng gen(3);
  auto g = make_erdos_renyi(24, 0.3, gen);
  assign_random_uniform_latency(g, 1, 4, gen);
  const RlbRun run = run_rlb(g, 4, 5);
  ASSERT_TRUE(run.sim.completed);
  EXPECT_TRUE(local_broadcast_complete(g, run.rumors));
}

TEST(RandomLocalBroadcast, EllCapRespected) {
  const auto g = build_graph(3, {{0, 1, 1}, {1, 2, 10}});
  const RlbRun run = run_rlb(g, 1, 7);
  ASSERT_TRUE(run.sim.completed);
  EXPECT_TRUE(run.rumors[0].test(1));
  EXPECT_FALSE(run.rumors[2].test(0));
}

TEST(RandomLocalBroadcast, SuperroundTiming) {
  auto g = make_cycle(10);
  assign_uniform_latency(g, 5);
  const RlbRun run = run_rlb(g, 5, 9);
  ASSERT_TRUE(run.sim.completed);
  // Exchanges only start at multiples of ell = 5; at least one
  // superround is needed.
  EXPECT_GE(run.sim.rounds, 5);
}

TEST(RandomLocalBroadcast, RequiresKnownLatencies) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(RandomLocalBroadcast(
                   view, 1, own_id_rumors(3), Rng(1)),
               std::invalid_argument);
}

TEST(RandomLocalBroadcast, SeededRumorsRelayed) {
  const auto g = make_path(4);
  NetworkView view(g, true);
  auto initial = own_id_rumors(4);
  initial[0].set(3);
  RandomLocalBroadcast proto(view, 1, std::move(initial), Rng(11));
  SimOptions opts;
  opts.stop_when_idle = false;
  opts.max_rounds = 100'000;
  ASSERT_TRUE(run_gossip(g, proto, opts).completed);
  EXPECT_TRUE(proto.rumors()[1].test(3));
}

TEST(EidAblation, RandomizedDiscoveryAlsoSolvesAllToAll) {
  auto g = make_grid(4, 4);
  Rng latr(13);
  assign_random_uniform_latency(g, 1, 4, latr);
  const Latency d = weighted_diameter(g);
  Rng rng(17);
  EidOptions opts;
  opts.diameter_estimate = d;
  opts.randomized_local_broadcast = true;
  const EidOutcome out = run_eid(g, opts, own_id_rumors(16), rng);
  EXPECT_TRUE(out.all_to_all);
}

TEST(EidAblation, BothVariantsProduceFullSets) {
  const auto g = make_ring_of_cliques(3, 4, 3);
  const std::size_t n = g.num_nodes();
  const Latency d = weighted_diameter(g);
  for (bool randomized : {false, true}) {
    Rng rng(19);
    EidOptions opts;
    opts.diameter_estimate = d;
    opts.randomized_local_broadcast = randomized;
    const EidOutcome out = run_eid(g, opts, own_id_rumors(n), rng);
    EXPECT_TRUE(out.all_to_all) << "randomized=" << randomized;
  }
}

}  // namespace
}  // namespace latgossip
