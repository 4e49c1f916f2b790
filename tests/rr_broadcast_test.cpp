// Tests for RR Broadcast on an oriented overlay (Algorithm 2, Lemma 15).

#include <gtest/gtest.h>

#include "analysis/distance.h"
#include "core/rr_broadcast.h"
#include "core/spanner.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/oracle.h"

namespace latgossip {
namespace {

/// Orient every edge of g in both directions (the trivial overlay).
DirectedGraph full_overlay(const WeightedGraph& g) {
  DirectedGraph d(g.num_nodes());
  for (const Edge& e : g.edges()) {
    d.add_arc(e.u, e.v, e.latency);
    d.add_arc(e.v, e.u, e.latency);
  }
  return d;
}

struct RrRun {
  SimResult sim;
  std::vector<Bitset> rumors;
  Round budget = 0;
};

RrRun run_rr(const WeightedGraph& g, const DirectedGraph& overlay, Latency k,
             Round budget_override = 0) {
  NetworkView view(g, true);
  RRBroadcast proto(view, overlay, k, own_id_rumors(g.num_nodes()),
                    budget_override);
  SimOptions opts;
  opts.max_rounds = proto.budget() + k + 4;
  RrRun run;
  run.budget = proto.budget();
  run.sim = run_gossip(g, proto, opts);
  run.rumors = proto.take_rumors();
  return run;
}

TEST(RRBroadcast, Lemma15DistanceKPairsExchange) {
  // After RR Broadcast with parameter k, any two nodes at weighted
  // distance <= k have exchanged rumors.
  Rng rng(3);
  auto g = make_erdos_renyi(18, 0.25, rng);
  assign_random_uniform_latency(g, 1, 6, rng);
  const Latency k = 9;
  const RrRun run = run_rr(g, full_overlay(g), k);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = dijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] == kUnreachable || dist[v] > k) continue;
      EXPECT_TRUE(run.rumors[u].test(v)) << u << " <- " << v;
      EXPECT_TRUE(run.rumors[v].test(u)) << v << " <- " << u;
    }
  }
}

TEST(RRBroadcast, IdleStopReportsCompleted) {
  // Under default options the run stops idle once its last legs land,
  // before the budget + k timer. An idle stop is final, so the engine
  // and the oracle both report the goal as reached.
  Rng rng(7);
  auto g = make_erdos_renyi(64, 0.15, rng);
  assign_random_uniform_latency(g, 1, 6, rng);
  const Latency k = 6;
  const DirectedGraph overlay = full_overlay(g);
  const NetworkView view(g, true);
  for (const bool on_oracle : {false, true}) {
    RRBroadcast proto(view, overlay, k, own_id_rumors(g.num_nodes()));
    const SimResult r =
        on_oracle ? run_gossip_oracle(g, proto) : run_gossip(g, proto);
    EXPECT_LT(r.rounds, proto.budget() + k) << "oracle=" << on_oracle;
    EXPECT_TRUE(r.completed) << "oracle=" << on_oracle;
    EXPECT_TRUE(all_sets_full(proto.rumors())) << "oracle=" << on_oracle;
  }
}

TEST(RRBroadcast, BudgetMatchesLemma15Formula) {
  const auto g = make_cycle(8);
  const auto overlay = full_overlay(g);  // out-degree 2 everywhere
  NetworkView view(g, true);
  RRBroadcast proto(view, overlay, 5, own_id_rumors(8));
  EXPECT_EQ(proto.budget(), 5 * 2 + 5);
}

TEST(RRBroadcast, ArcsAboveKIgnored) {
  // A latency-10 edge must not be used at k = 2.
  const auto g = build_graph(3, {{0, 1, 1}, {1, 2, 10}});
  const RrRun run = run_rr(g, full_overlay(g), 2);
  EXPECT_TRUE(run.rumors[0].test(1));
  EXPECT_FALSE(run.rumors[2].test(0));
  EXPECT_FALSE(run.rumors[0].test(2));
}

TEST(RRBroadcast, WorksOnSpannerOverlay) {
  Rng rng(7);
  auto g = make_clique(24);
  assign_random_uniform_latency(g, 1, 4, rng);
  Rng spanner_rng(11);
  const auto spanner = build_baswana_sen_spanner(g, {0, 0}, spanner_rng);
  // Spanner stretch (2 log n - 1) times diameter (<= 4) bounds distances.
  const Latency k = 4 * (2 * 5 - 1);
  const RrRun run = run_rr(g, spanner, k);
  EXPECT_TRUE(all_sets_full(run.rumors));
}

TEST(RRBroadcast, BudgetOverrideRespected) {
  const auto g = make_cycle(6);
  const RrRun run = run_rr(g, full_overlay(g), 3, /*budget_override=*/2);
  EXPECT_EQ(run.budget, 2);
  EXPECT_LE(run.sim.activations, 2u * 6u);
}

TEST(RRBroadcast, NodeWithNoOutArcsStaysQuietButReceives) {
  // Orient a path 0->1->2 one way only; node 2 initiates nothing but
  // still learns everything through incoming exchanges.
  const auto g = make_path(3);
  DirectedGraph overlay(3);
  overlay.add_arc(0, 1, 1);
  overlay.add_arc(1, 2, 1);
  const RrRun run = run_rr(g, overlay, 3);
  EXPECT_TRUE(run.rumors[2].test(0));
  EXPECT_TRUE(run.rumors[2].test(1));
  // And symmetrically the exchange is bidirectional:
  EXPECT_TRUE(run.rumors[0].test(1));
}

TEST(RRBroadcast, ValidatesInput) {
  const auto g = make_path(3);
  NetworkView view(g, true);
  const auto overlay = full_overlay(g);
  EXPECT_THROW(RRBroadcast(view, overlay, 0, own_id_rumors(3)),
               std::invalid_argument);
  EXPECT_THROW(RRBroadcast(view, overlay, 1, own_id_rumors(2)),
               std::invalid_argument);
  EXPECT_THROW(RRBroadcast(view, DirectedGraph(2), 1, own_id_rumors(3)),
               std::invalid_argument);
  // An overlay arc must run over a graph edge: {0,2} is not one.
  DirectedGraph shortcut(3);
  shortcut.add_arc(0, 2, 1);
  EXPECT_THROW(RRBroadcast(view, shortcut, 1, own_id_rumors(3)),
               std::invalid_argument);
}

TEST(RRBroadcastHelpers, AllSetsFullAndLocalBroadcastComplete) {
  const auto g = make_path(3);
  auto rumors = own_id_rumors(3);
  EXPECT_FALSE(all_sets_full(rumors));
  EXPECT_FALSE(local_broadcast_complete(g, rumors));
  for (auto& b : rumors) b.set_all();
  EXPECT_TRUE(all_sets_full(rumors));
  EXPECT_TRUE(local_broadcast_complete(g, rumors));
}

}  // namespace
}  // namespace latgossip
