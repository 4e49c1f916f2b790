// Tests for ℓ-DTG deterministic local broadcast (Appendix C).

#include <gtest/gtest.h>

#include "core/dtg.h"
#include "core/rr_broadcast.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

struct DtgRun {
  SimResult sim;
  std::vector<Bitset> rumors;
  std::size_t max_iteration = 0;
};

DtgRun run_dtg(const WeightedGraph& g, Latency ell,
               std::vector<Bitset> initial = {}) {
  NetworkView view(g, true);
  if (initial.empty()) initial = own_id_rumors(g.num_nodes());
  DtgLocalBroadcast proto(view, ell, std::move(initial));
  SimOptions opts;
  opts.stop_when_idle = false;
  opts.max_rounds = 1'000'000;
  DtgRun run;
  run.sim = run_gossip(g, proto, opts);
  run.max_iteration = proto.max_iteration();
  run.rumors = proto.take_rumors();
  return run;
}

void expect_local_broadcast(const WeightedGraph& g, Latency ell,
                            const std::vector<Bitset>& rumors) {
  for (const Edge& e : g.edges()) {
    if (e.latency > ell) continue;
    EXPECT_TRUE(rumors[e.u].test(e.v))
        << e.u << " missing rumor of neighbor " << e.v;
    EXPECT_TRUE(rumors[e.v].test(e.u))
        << e.v << " missing rumor of neighbor " << e.u;
  }
}

TEST(Dtg, LocalBroadcastOnClique) {
  const auto g = make_clique(16);
  const DtgRun run = run_dtg(g, 1);
  EXPECT_TRUE(run.sim.completed);
  expect_local_broadcast(g, 1, run.rumors);
}

TEST(Dtg, LocalBroadcastOnPath) {
  const auto g = make_path(12);
  const DtgRun run = run_dtg(g, 1);
  EXPECT_TRUE(run.sim.completed);
  expect_local_broadcast(g, 1, run.rumors);
}

TEST(Dtg, LocalBroadcastOnStar) {
  // The hub has n-1 neighbors; DTG must still finish in polylog
  // iterations because leaf rumors are relayed through the hub's trees.
  const auto g = make_star(32);
  const DtgRun run = run_dtg(g, 1);
  EXPECT_TRUE(run.sim.completed);
  expect_local_broadcast(g, 1, run.rumors);
}

TEST(Dtg, IterationCountLogarithmic) {
  // A node active in iteration i has a 2^i-node witness tree, so
  // iterations never exceed log2(n) (Appendix C).
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    const auto g = make_clique(n);
    const DtgRun run = run_dtg(g, 1);
    EXPECT_TRUE(run.sim.completed);
    std::size_t log2n = 0;
    while ((1u << log2n) < n) ++log2n;
    EXPECT_LE(run.max_iteration, log2n + 1) << "n=" << n;
  }
}

TEST(Dtg, EllCapRestrictsToGell) {
  // Triangle with one slow edge: at ell = 1 the slow pair need not
  // exchange directly, but the two fast pairs must.
  const auto g = build_graph(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 10}});
  const DtgRun run = run_dtg(g, 1);
  EXPECT_TRUE(run.sim.completed);
  expect_local_broadcast(g, 1, run.rumors);
}

TEST(Dtg, SuperroundsScaleWithEll) {
  // Same topology, ell = 1 vs ell = 4 (with all latencies <= ell): the
  // schedule runs in superrounds of ell, so time scales ~linearly.
  auto g1 = make_cycle(12);
  auto g4 = make_cycle(12);
  assign_uniform_latency(g4, 4);
  const DtgRun r1 = run_dtg(g1, 1);
  const DtgRun r4 = run_dtg(g4, 4);
  ASSERT_TRUE(r1.sim.completed);
  ASSERT_TRUE(r4.sim.completed);
  EXPECT_GE(r4.sim.rounds, 3 * r1.sim.rounds);
  EXPECT_LE(r4.sim.rounds, 5 * r1.sim.rounds + 8);
}

TEST(Dtg, NodeWithoutFastNeighborsIdles) {
  // Node 2 is attached only via a slow edge; at ell = 1 it terminates
  // immediately and the rest complete among themselves.
  const auto g = build_graph(3, {{0, 1, 1}, {1, 2, 8}});
  const DtgRun run = run_dtg(g, 1);
  EXPECT_TRUE(run.sim.completed);
  EXPECT_TRUE(run.rumors[0].test(1));
  EXPECT_TRUE(run.rumors[1].test(0));
  EXPECT_FALSE(run.rumors[2].test(0));
}

TEST(Dtg, SeededRumorsAreRelayed) {
  // Seed node 0 with an extra rumor (id 3, a non-neighbor): after DTG,
  // 0's neighbors must have received it.
  const auto g = make_path(4);
  auto initial = own_id_rumors(4);
  initial[0].set(3);
  const DtgRun run = run_dtg(g, 1, std::move(initial));
  EXPECT_TRUE(run.sim.completed);
  EXPECT_TRUE(run.rumors[1].test(3));
}

TEST(Dtg, RequiresKnownLatencies) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(
      DtgLocalBroadcast(view, 1, own_id_rumors(3)),
      std::invalid_argument);
}

TEST(Dtg, ValidatesParameters) {
  const auto g = make_path(3);
  NetworkView view(g, true);
  EXPECT_THROW(
      DtgLocalBroadcast(view, 0, own_id_rumors(3)),
      std::invalid_argument);
  EXPECT_THROW(
      DtgLocalBroadcast(view, 1, own_id_rumors(2)),
      std::invalid_argument);
}

TEST(Dtg, MixedLatenciesWithinCap) {
  // Latencies 1..3 under cap 4: all pairs are G_ell neighbors; the
  // superround structure (one step per 4 rounds) must still deliver
  // everything in time.
  auto g = make_clique(10);
  Rng rng(3);
  assign_random_uniform_latency(g, 1, 3, rng);
  const DtgRun run = run_dtg(g, 4);
  EXPECT_TRUE(run.sim.completed);
  expect_local_broadcast(g, 4, run.rumors);
}

TEST(Dtg, DeterministicAcrossRuns) {
  const auto g = make_clique(12);
  const DtgRun a = run_dtg(g, 1);
  const DtgRun b = run_dtg(g, 1);
  EXPECT_EQ(a.sim.rounds, b.sim.rounds);
  EXPECT_EQ(a.sim.activations, b.sim.activations);
}

}  // namespace
}  // namespace latgossip
