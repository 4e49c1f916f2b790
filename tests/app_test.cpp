// Tests for the application layer: LWW key-value store, anti-entropy
// replication, and gossip aggregation.

#include <gtest/gtest.h>

#include "app/aggregate.h"
#include "app/anti_entropy.h"
#include "app/kv_store.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "sim/engine.h"
#include "sim/dynamics.h"

namespace latgossip {
namespace {

// ------------------------------------------------------------ KvStore

TEST(KvStore, LocalPutBumpsVersion) {
  KvStore s(3);
  s.put("k", "v1");
  s.put("k", "v2");
  const KvEntry* e = s.get("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, "v2");
  EXPECT_EQ(e->version, 2u);
  EXPECT_EQ(e->writer, 3u);
}

TEST(KvStore, LwwMergeHigherVersionWins) {
  KvStore a(0), b(1);
  a.put("k", "old");
  b.put("k", "mid");
  b.put("k", "new");  // version 2
  a.merge(b.snapshot());
  EXPECT_EQ(a.get("k")->value, "new");
  // Older state cannot regress the winner.
  KvStore stale(2);
  stale.put("k", "stale");  // version 1
  a.merge(stale.snapshot());
  EXPECT_EQ(a.get("k")->value, "new");
}

TEST(KvStore, TieBrokenByWriterId) {
  KvStore a(0), b(5);
  a.put("k", "from0");  // (1, 0)
  b.put("k", "from5");  // (1, 5) — dominates on writer id
  KvStore observer(9);
  observer.merge(a.snapshot());
  observer.merge(b.snapshot());
  EXPECT_EQ(observer.get("k")->value, "from5");
  // Merge order must not matter.
  KvStore observer2(9);
  observer2.merge(b.snapshot());
  observer2.merge(a.snapshot());
  EXPECT_EQ(observer2.digest(), observer.digest());
}

TEST(KvStore, DigestDetectsDifferencesAndConvergence) {
  KvStore a(0), b(1);
  a.put("x", "1");
  EXPECT_NE(a.digest(), b.digest());
  b.merge(a.snapshot());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(KvStore, MergeIsIdempotent) {
  KvStore a(0);
  a.put("x", "1");
  const std::uint64_t before = a.digest();
  a.merge(a.snapshot());
  EXPECT_EQ(a.digest(), before);
}

TEST(KvStore, SnapshotBits) {
  KvStore a(0);
  a.put("key", "value");  // 3 + 5 bytes payload + 96 bits metadata
  EXPECT_EQ(KvStore::snapshot_bits(a.snapshot()), 8u * 8u + 96u);
}

// -------------------------------------------------------- AntiEntropy

std::vector<KvStore> seeded_stores(std::size_t n) {
  std::vector<KvStore> stores;
  for (NodeId v = 0; v < n; ++v) {
    KvStore s(v);
    s.put("key-" + std::to_string(v), "payload-" + std::to_string(v));
    stores.push_back(std::move(s));
  }
  return stores;
}

TEST(AntiEntropy, ConvergesOnClique) {
  const auto g = make_clique(12);
  NetworkView view(g, false);
  AntiEntropy proto(view, seeded_stores(12), Rng(1));
  SimOptions opts;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(proto.converged());
  // Every replica holds all 12 keys.
  for (const KvStore& s : proto.stores()) EXPECT_EQ(s.size(), 12u);
}

TEST(AntiEntropy, ConvergesOnWeightedBottleneck) {
  const auto g = make_dumbbell(5, 1, 15);
  NetworkView view(g, false);
  AntiEntropy proto(view, seeded_stores(g.num_nodes()), Rng(3));
  SimOptions opts;
  opts.max_rounds = 200'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  // Convergence cannot beat the bridge latency.
  EXPECT_GE(r.rounds, 15);
}

TEST(AntiEntropy, ConflictingWritesResolveIdentically) {
  const auto g = make_cycle(8);
  auto stores = seeded_stores(8);
  // Everyone writes the same key concurrently.
  for (NodeId v = 0; v < 8; ++v)
    stores[v].put("shared", "writer-" + std::to_string(v));
  NetworkView view(g, false);
  AntiEntropy proto(view, std::move(stores), Rng(5));
  SimOptions opts;
  opts.max_rounds = 100'000;
  ASSERT_TRUE(run_gossip(g, proto, opts).completed);
  // LWW: version 2 everywhere, highest writer id wins the tie.
  for (const KvStore& s : proto.stores())
    EXPECT_EQ(s.get("shared")->value, "writer-7");
}

TEST(AntiEntropy, SurvivesLinkLoss) {
  const auto g = make_clique(10);
  NetworkView view(g, false);
  AntiEntropy proto(view, seeded_stores(10), Rng(7));
  DynamicSpec lossy;
  lossy.drop_prob = 0.25;
  lossy.fault_seed = 9;
  DynamicPlan plan(10, g.num_edges(), lossy);
  SimOptions opts;
  opts.dynamics = &plan;
  opts.max_rounds = 200'000;
  EXPECT_TRUE(run_gossip(g, proto, opts).completed);
}

TEST(AntiEntropy, AccountsPayloadBits) {
  const auto g = make_clique(6);
  NetworkView view(g, false);
  AntiEntropy proto(view, seeded_stores(6), Rng(11));
  SimOptions opts;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.payload_bits, 0u);
}

TEST(AntiEntropy, ValidatesStoreCount) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(AntiEntropy(view, seeded_stores(2), Rng(1)),
               std::invalid_argument);
}

// -------------------------------------------------------- aggregation

TEST(MinAggregation, ConvergesToGlobalMin) {
  const auto g = make_grid(4, 4);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 16; ++i) values.push_back(100 - 3 * i);
  NetworkView view(g, false);
  MinAggregation proto(view, values, Rng(13));
  SimOptions opts;
  opts.max_rounds = 100'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(proto.current(v), 100 - 45);
}

TEST(MinAggregation, HandlesDuplicatesAndNegatives) {
  const auto g = make_cycle(6);
  NetworkView view(g, false);
  MinAggregation proto(view, {-5, 0, -5, 3, 7, -5}, Rng(17));
  SimOptions opts;
  opts.max_rounds = 100'000;
  ASSERT_TRUE(run_gossip(g, proto, opts).completed);
  EXPECT_EQ(proto.global_min(), -5);
}

TEST(LeaderElection, ElectsMinimumId) {
  Rng gen(19);
  auto g = make_erdos_renyi(20, 0.3, gen);
  assign_random_uniform_latency(g, 1, 4, gen);
  const LeaderElectionResult r = elect_min_leader(g, Rng(23));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.leader, 0u);
  EXPECT_GT(r.rounds, 0);
}

TEST(MinAggregation, ValidatesInput) {
  const auto g = make_path(3);
  NetworkView view(g, false);
  EXPECT_THROW(MinAggregation(view, {1, 2}, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
