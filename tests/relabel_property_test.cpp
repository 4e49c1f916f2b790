// Symmetry properties (check/relabel.h):
//
//  * node-relabel invariance — SymmetricPushPull, whose contact choice
//    is a pure function of (seed, round, original labels), must produce
//    the identical SimResult on a randomly relabeled graph, and the
//    identical event-stream fingerprint once node ids are mapped back;
//  * edge-id permutation invariance — the PRODUCTION protocols (seeded
//    uniform push–pull, the full general-EID pipeline) never read edge
//    ids, only sorted adjacency slices, so re-inserting the same edges
//    in a different order must change nothing but the EdgeId labels in
//    the event stream (fingerprint equal modulo an edge-id remap).

#include <gtest/gtest.h>

#include "check/relabel.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace latgossip {
namespace {

WeightedGraph random_test_graph(Rng& rng, std::size_t n) {
  WeightedGraph g = make_erdos_renyi(n, 0.4, rng, 256);
  assign_random_uniform_latency(g, 1, 6, rng);
  return g;
}

TEST(Relabel, SymmetricPushPullIsNodeRelabelInvariant) {
  Rng rng(0xabcd);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.uniform(10);
    const WeightedGraph g = random_test_graph(rng, n);
    const auto source = static_cast<NodeId>(rng.uniform(n));
    const std::uint64_t seed = rng();

    const std::vector<NodeId> perm = random_permutation(n, rng);
    const std::vector<NodeId> inv = inverse_permutation(perm);
    const WeightedGraph relabeled = relabel_nodes(g, perm);

    EventRecorder base_rec;
    SimOptions base_opts;
    base_opts.recorder = &base_rec;
    NetworkView base_view(g, false);
    SymmetricPushPull base(base_view, source, seed, identity_permutation(n));
    const SimResult base_result = run_gossip(g, base, base_opts);

    // In the relabeled run node perm[u] carries u's original label, so
    // every node makes exactly the choice its pre-image made.
    EventRecorder rel_rec(EventLog::kKeep);
    SimOptions rel_opts;
    rel_opts.recorder = &rel_rec;
    NetworkView rel_view(relabeled, false);
    SymmetricPushPull rel(rel_view, perm[source], seed, inv);
    const SimResult rel_result = run_gossip(relabeled, rel, rel_opts);

    EXPECT_EQ(base_result, rel_result) << "trial " << trial;
    // relabel_nodes preserves edge insertion order => EdgeIds match;
    // only node fields need mapping back.
    EXPECT_EQ(base_rec.fingerprint(),
              remapped_fingerprint(rel_rec, &inv, nullptr))
        << "trial " << trial;
    for (NodeId u = 0; u < n; ++u)
      EXPECT_EQ(base.informed(u), rel.informed(perm[u]));
  }
}

TEST(Relabel, ProductionPushPullIsEdgeIdPermutationInvariant) {
  Rng rng(0x1234);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.uniform(10);
    const WeightedGraph g = random_test_graph(rng, n);
    const auto source = static_cast<NodeId>(rng.uniform(n));
    const std::uint64_t seed = rng();

    std::vector<EdgeId> perm(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) perm[e] = e;
    rng.shuffle(perm);
    const WeightedGraph permuted = permute_edge_ids(g, perm);

    EventRecorder base_rec;
    SimOptions base_opts;
    base_opts.recorder = &base_rec;
    NetworkView base_view(g, false);
    PushPullBroadcast base(base_view, source, Rng(seed));
    const SimResult base_result = run_gossip(g, base, base_opts);

    EventRecorder perm_rec(EventLog::kKeep);
    SimOptions perm_opts;
    perm_opts.recorder = &perm_rec;
    NetworkView perm_view(permuted, false);
    PushPullBroadcast shuffled(perm_view, source, Rng(seed));
    const SimResult perm_result = run_gossip(permuted, shuffled, perm_opts);

    EXPECT_EQ(base_result, perm_result) << "trial " << trial;
    // New EdgeId i is old EdgeId perm[i]; map the permuted stream back.
    EXPECT_EQ(base_rec.fingerprint(),
              remapped_fingerprint(perm_rec, nullptr, &perm))
        << "trial " << trial;
  }
}

TEST(Relabel, GeneralEidIsEdgeIdPermutationInvariant) {
  Rng rng(0x77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.uniform(8);
    const WeightedGraph g = random_test_graph(rng, n);
    const std::uint64_t seed = rng();

    std::vector<EdgeId> perm(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) perm[e] = e;
    rng.shuffle(perm);
    const WeightedGraph permuted = permute_edge_ids(g, perm);

    EventRecorder base_rec;
    ObsContext base_obs{&base_rec, nullptr};
    Rng base_rng(seed);
    const GeneralEidOutcome base =
        run_general_eid(g, 0, base_rng, 1, &base_obs);

    EventRecorder perm_rec(EventLog::kKeep);
    ObsContext perm_obs{&perm_rec, nullptr};
    Rng perm_rng(seed);
    const GeneralEidOutcome shuffled =
        run_general_eid(permuted, 0, perm_rng, 1, &perm_obs);

    EXPECT_EQ(base.sim, shuffled.sim) << "trial " << trial;
    EXPECT_EQ(base.final_estimate, shuffled.final_estimate);
    EXPECT_EQ(base.attempts, shuffled.attempts);
    EXPECT_EQ(base.success, shuffled.success);
    EXPECT_EQ(base.rumors, shuffled.rumors);
    EXPECT_EQ(base_rec.fingerprint(),
              remapped_fingerprint(perm_rec, nullptr, &perm))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace latgossip
