// Integration tests: whole-pipeline runs combining graph construction,
// analysis, and the dissemination algorithms, mirroring how the bench
// harnesses use the library.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/conductance.h"
#include "analysis/distance.h"
#include "analysis/spanner_check.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/tk_schedule.h"
#include "core/unified.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

TEST(Integration, PushPullWithinTheorem12Bound) {
  // Theorem 12: broadcast in O((ℓ*/φ*) log n). Check the measured time
  // against C * (ℓ*/φ*) * log n for a generous constant C on a
  // low-conductance weighted family.
  const auto g = make_ring_of_cliques(4, 4, 8);
  const auto wc = weighted_conductance_exact(g);
  ASSERT_GT(wc.phi_star, 0.0);
  const double bound = static_cast<double>(wc.ell_star) / wc.phi_star *
                       std::log2(static_cast<double>(g.num_nodes()));
  double worst = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    NetworkView view(g, false);
    PushPullBroadcast proto(view, 0, Rng(seed));
    SimOptions opts;
    opts.max_rounds = 1'000'000;
    const SimResult r = run_gossip(g, proto, opts);
    ASSERT_TRUE(r.completed);
    worst = std::max(worst, static_cast<double>(r.rounds));
  }
  EXPECT_LE(worst, 8.0 * bound);
}

TEST(Integration, EidMatchesTkScheduleResults) {
  // Both known-latency algorithms must converge to identical (full)
  // rumor sets on the same weighted graph.
  auto g = make_grid(3, 5);
  Rng latr(3);
  assign_random_uniform_latency(g, 1, 4, latr);
  const Latency d = weighted_diameter(g);

  Rng rng(5);
  EidOptions opts;
  opts.diameter_estimate = d;
  const EidOutcome eid = run_eid(g, opts, own_id_rumors(15), rng);
  const TkOutcome tk = run_tk_schedule(g, d, own_id_rumors(15));
  ASSERT_TRUE(eid.all_to_all);
  ASSERT_TRUE(tk.all_to_all);
  for (NodeId v = 0; v < 15; ++v) EXPECT_TRUE(eid.rumors[v] == tk.rumors[v]);
}

TEST(Integration, Theorem8RingHasAdvertisedShape) {
  // D = Θ(1/φ_ℓ) and φ* = φ_ℓ (Lemmas 9-11) on a small ring instance.
  // Lemma 11 needs ell < s^2 strictly for the critical latency to be the
  // cross latency; s = 4 and ell = 9 < 16 satisfies it.
  Rng rng(7);
  const auto ring = make_layered_ring(6, 4, 9, rng);
  const auto wc = weighted_conductance_exact(ring.graph);
  EXPECT_EQ(wc.ell_star, 9);  // the cross latency is critical
  const Latency d = weighted_diameter(ring.graph);
  const double phi_ell = wc.phi_star;
  ASSERT_GT(phi_ell, 0.0);
  // D within a small constant of 1/phi_ell.
  EXPECT_GE(static_cast<double>(d) * phi_ell, 0.2);
  EXPECT_LE(static_cast<double>(d) * phi_ell, 5.0);
}

TEST(Integration, SpannerPipelineOnGeometricGraph) {
  // Geometric graph with distance latencies -> spanner -> RR broadcast:
  // the full known-latency pipeline on a "sensor network" input.
  Rng rng(11);
  std::vector<std::pair<double, double>> coords;
  auto g = make_random_geometric(40, 0.35, rng, &coords);
  assign_distance_latency(g, coords, 20.0);

  Rng srng(13);
  const auto spanner = build_baswana_sen_spanner(g, {0, 0}, srng);
  Rng check_rng(17);
  const auto stats = check_spanner_sampled(g, spanner, 10, check_rng);
  EXPECT_TRUE(stats.connected);
  std::size_t logn = 0;
  while ((1u << logn) < 40u) ++logn;
  EXPECT_LE(stats.max_stretch, static_cast<double>(2 * logn - 1) + 1e-9);

  const Latency d = weighted_diameter(g);
  NetworkView view(g, true);
  RRBroadcast rr(view, spanner,
                 d * static_cast<Latency>(2 * logn - 1),
                 own_id_rumors(40));
  SimOptions opts;
  opts.max_rounds = rr.budget() + d * static_cast<Latency>(2 * logn) + 4;
  run_gossip(g, rr, opts);
  EXPECT_TRUE(all_sets_full(rr.rumors()));
}

TEST(Integration, UnifiedAgreesWithBranchRuns) {
  auto g = make_dumbbell(4, 2, 6);
  Rng rng(19);
  UnifiedOptions opts;
  opts.latencies_known = true;
  const UnifiedOutcome out = run_unified(g, opts, rng);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.unified_rounds,
            std::min(out.push_pull_completed ? out.push_pull_rounds
                                             : out.spanner_rounds,
                     out.spanner_completed ? out.spanner_rounds
                                           : out.push_pull_rounds));
}

TEST(Integration, Theorem7GadgetConductanceMatchesPhi) {
  // On a small Theorem 7 instance the exact weighted conductance at
  // level ℓ should be Θ(φ) (Claim 21 / the Theorem 7 proof).
  Rng rng(23);
  const auto net = make_theorem7_network(10, 2, 0.4, rng);
  const auto wc = weighted_conductance_exact(net.gadget.graph, 22);
  double phi_ell = 0.0;
  for (std::size_t i = 0; i < wc.levels.size(); ++i)
    if (wc.levels[i] == 2) phi_ell = wc.phi[i];
  EXPECT_GT(phi_ell, 0.4 / 8.0);
  EXPECT_LT(phi_ell, 0.4 * 4.0);
}

TEST(Integration, AllAlgorithmsAgreeOnFinalRumors) {
  // Push-pull (to completion), flooding, General EID and Path Discovery
  // all end with full rumor sets on the same connected weighted graph.
  Rng gen(29);
  auto g = make_erdos_renyi(12, 0.4, gen);
  assign_two_level_latency(g, 1, 6, 0.5, gen);

  {
    NetworkView view(g, false);
    PushPullGossip pp(view, GossipGoal::kAllToAll, 0,
                      own_id_rumors(12), Rng(31));
    SimOptions opts;
    opts.max_rounds = 500'000;
    ASSERT_TRUE(run_gossip(g, pp, opts).completed);
    EXPECT_TRUE(all_sets_full(pp.rumors()));
  }
  {
    Rng rng(37);
    const GeneralEidOutcome eid = run_general_eid(g, 0, rng);
    ASSERT_TRUE(eid.success);
    EXPECT_TRUE(all_sets_full(eid.rumors));
  }
  {
    const PathDiscoveryOutcome pd = run_path_discovery(g);
    ASSERT_TRUE(pd.success);
    EXPECT_TRUE(all_sets_full(pd.rumors));
  }
}

}  // namespace
}  // namespace latgossip
