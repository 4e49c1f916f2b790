// Tests for the observability subsystem (src/obs/): packed event
// layout, recorder queries and folded state, the metrics registry
// and phase scopes, trace/manifest exports, and pinned golden
// fingerprints for seeded runs of push-pull, rumor gossip, the
// baselines and rumor subroutines, EID, Path Discovery and the
// unknown-latency EID branch — the semantic-regression net promised
// in obs/fingerprint.h.

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <sstream>

#include "app/aggregate.h"
#include "app/anti_entropy.h"
#include "core/dtg.h"
#include "core/eid.h"
#include "core/latency_discovery.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/tk_schedule.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/export.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/oracle.h"

namespace latgossip {
namespace {

// --- packed event layout ----------------------------------------------

TEST(Event, PackedAccessorsRoundTrip) {
  const Event e = Event::make(17, 12, 3, 9, 41, EventKind::kDelivery);
  EXPECT_EQ(e.round(), 17);
  EXPECT_EQ(e.start(), 12);
  EXPECT_EQ(e.a(), 3u);
  EXPECT_EQ(e.b(), 9u);
  EXPECT_EQ(e.edge(), 41u);
  EXPECT_EQ(e.kind(), EventKind::kDelivery);
  EXPECT_EQ(sizeof(Event), 20u);
}

TEST(Event, SaturatesOversizedFields) {
  // Rounds past 2^32-1 clamp; edges at/above the 29-bit mask collapse
  // to the invalid sentinel — both far outside simulable ranges.
  const Round huge = Round{1} << 40;
  const Event e =
      Event::make(huge, -5, 1, 2, Event::kEdgeMask + 7, EventKind::kDrop);
  EXPECT_EQ(e.round(), static_cast<Round>(UINT32_MAX));
  EXPECT_EQ(e.start(), 0);  // negative rounds clamp to zero
  EXPECT_EQ(e.edge(), kInvalidEdge);
  EXPECT_EQ(e.kind(), EventKind::kDrop);
  const Event inv = Event::make(0, 0, 0, 0, kInvalidEdge, EventKind::kDrop);
  EXPECT_EQ(inv.edge(), kInvalidEdge);
}

// --- recorder ----------------------------------------------------------

/// Activations in round r, counted from a log-keeping recorder's events.
std::size_t activations_in_round(const EventRecorder& rec, Round r) {
  std::size_t c = 0;
  for (const Event& e : rec.events())
    if (e.kind() == EventKind::kActivation && e.round() == r) ++c;
  return c;
}

/// Activations per edge, counted from a log-keeping recorder's events.
std::vector<std::size_t> per_edge_counts(const EventRecorder& rec,
                                         std::size_t num_edges) {
  std::vector<std::size_t> counts(num_edges, 0);
  for (const Event& e : rec.events())
    if (e.kind() == EventKind::kActivation && e.edge() < num_edges)
      ++counts[e.edge()];
  return counts;
}

TEST(Recorder, CountsAndRoundIndex) {
  EventRecorder rec(EventLog::kKeep);
  rec.record_activation(0, 1, 0, 0);
  rec.record_delivery(1, 0, 0, 0, 2);
  rec.record_activation(2, 3, 1, 2);
  rec.record_activation(4, 5, 2, 2);
  rec.record_drop(3, 2, 1, 2, 3, /*crash=*/false);
  rec.record_drop(5, 4, 2, 2, 3, /*crash=*/true);

  EXPECT_EQ(rec.size(), 6u);
  EXPECT_EQ(rec.activations(), 3u);
  EXPECT_EQ(rec.deliveries(), 1u);
  EXPECT_EQ(rec.drops(), 2u);  // link loss + crash loss together
  EXPECT_TRUE(rec.round_monotone());
  EXPECT_EQ(rec.max_round(), 3);
  EXPECT_EQ(activations_in_round(rec, 0), 1u);
  EXPECT_EQ(activations_in_round(rec, 1), 0u);
  EXPECT_EQ(activations_in_round(rec, 2), 2u);
  const auto per_edge = per_edge_counts(rec, 3);
  EXPECT_EQ(per_edge[0], 1u);
  EXPECT_EQ(per_edge[1], 1u);
  EXPECT_EQ(per_edge[2], 1u);
}

TEST(Recorder, QueriesInterleaveWithAppends) {
  // Derived state is folded on demand; querying mid-stream then
  // appending more must still give correct answers (the fold is
  // incremental).
  EventRecorder rec(EventLog::kKeep);
  rec.record_activation(0, 1, 0, 0);
  EXPECT_EQ(rec.activations(), 1u);
  EXPECT_EQ(activations_in_round(rec, 0), 1u);
  rec.record_activation(1, 2, 1, 1);
  rec.record_activation(2, 3, 2, 1);
  EXPECT_EQ(rec.activations(), 3u);
  EXPECT_EQ(activations_in_round(rec, 1), 2u);
  EXPECT_EQ(rec.max_round(), 1);
}

TEST(Recorder, NonMonotoneStreamFallsBackToScans) {
  // Multi-phase protocols restart rounds at 0: the log still answers
  // round-indexed questions by scanning, and the recorder drops its
  // in-flight deltas, which only a monotone stream defines.
  EventRecorder rec(EventLog::kKeep);
  rec.record_activation(0, 1, 0, 5);
  rec.record_activation(1, 2, 1, 0);  // round went backwards
  rec.record_activation(2, 3, 2, 5);
  rec.record_delivery(2, 3, 2, 5, 6);
  EXPECT_FALSE(rec.round_monotone());
  EXPECT_EQ(activations_in_round(rec, 5), 2u);
  EXPECT_EQ(activations_in_round(rec, 0), 1u);
  EXPECT_EQ(rec.max_round(), 6);
  EXPECT_FALSE(rec.inflight_depth().has_value());
  EXPECT_EQ(rec.delivery_latency().count(), 1u);
}

TEST(Recorder, ClearResetsEverythingAndIsReusable) {
  EventRecorder rec;
  rec.record_activation(0, 1, 0, 3);
  rec.record_phase_begin("p", 0);
  const std::uint64_t fp1 = rec.fingerprint();
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.activations(), 0u);
  EXPECT_EQ(rec.max_round(), 0);
  EXPECT_TRUE(rec.round_monotone());
  EXPECT_TRUE(rec.phase_names().empty());
  // Same events after clear() reproduce the same digest.
  rec.record_activation(0, 1, 0, 3);
  rec.record_phase_begin("p", 0);
  EXPECT_EQ(rec.fingerprint(), fp1);
}

TEST(Recorder, PhaseNamesIntern) {
  EventRecorder rec;
  rec.record_phase_begin("alpha", 0);
  rec.record_phase_end("alpha", 4);
  rec.record_phase_begin("beta", 4);
  ASSERT_EQ(rec.phase_names().size(), 2u);
  EXPECT_EQ(rec.phase_name(0), "alpha");
  EXPECT_EQ(rec.phase_name(1), "beta");
  EXPECT_EQ(rec.phase_name(99), "?");
}

// --- fingerprint -------------------------------------------------------

TEST(FingerprintDigest, OrderInsensitive) {
  EventRecorder a, b;
  a.record_activation(0, 1, 0, 0);
  a.record_delivery(1, 0, 0, 0, 2);
  // Same multiset, recorded in the opposite order.
  b.record_delivery(1, 0, 0, 0, 2);
  b.record_activation(0, 1, 0, 0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);
}

TEST(FingerprintDigest, SensitiveToEveryField) {
  const auto fp_of = [](Round r, Round s, NodeId u, NodeId v, EdgeId e,
                        EventKind k) {
    EventRecorder rec;
    rec.record_activation(0, 1, 0, 0);  // common prefix
    if (k == EventKind::kActivation)
      rec.record_activation(u, v, e, r);
    else
      rec.record_delivery(u, v, e, s, r);
    return rec.fingerprint();
  };
  const std::uint64_t base = fp_of(3, 1, 5, 6, 7, EventKind::kDelivery);
  EXPECT_NE(base, fp_of(4, 1, 5, 6, 7, EventKind::kDelivery));  // round
  EXPECT_NE(base, fp_of(3, 2, 5, 6, 7, EventKind::kDelivery));  // start
  EXPECT_NE(base, fp_of(3, 1, 8, 6, 7, EventKind::kDelivery));  // receiver
  EXPECT_NE(base, fp_of(3, 1, 5, 9, 7, EventKind::kDelivery));  // sender
  EXPECT_NE(base, fp_of(3, 1, 5, 6, 8, EventKind::kDelivery));  // edge
  EXPECT_NE(base, fp_of(3, 1, 5, 6, 7, EventKind::kActivation));  // kind
}

TEST(FingerprintDigest, MergeMatchesSingleStream) {
  Fingerprint whole, left, right;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t h = fp_hash3(i, i * 3, i * 7);
    whole.add(h);
    (i % 2 ? left : right).add(h);
  }
  left.merge(right);
  EXPECT_EQ(left, whole);
  EXPECT_EQ(left.digest(), whole.digest());
  EXPECT_EQ(fingerprint_merge_digests(1, 2), fingerprint_merge_digests(2, 1));
}

// --- metrics -----------------------------------------------------------

TEST(Metrics, HistogramBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);  // exact zero
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2048)
  EXPECT_EQ(Histogram::bucket_lo(11), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 206.0);
}

TEST(Metrics, PhaseScopeStampsClockAndRecorder) {
  EventRecorder rec(EventLog::kKeep);
  MetricsRegistry metrics;
  CompositeContext ctx(&rec, &metrics);
  ctx.rounds_left = 40;
  SimResult fake;
  fake.rounds = 10;
  fake.activations = 4;
  {
    PhaseScope p(&ctx, "phase_a");
    ctx.charge(fake);
  }
  {
    PhaseScope p(&ctx, "phase_b");
    {
      // A run goes to the innermost open phase only.
      PhaseScope inner(&ctx, "phase_b/inner");
      ctx.charge(fake);
    }
    ctx.charge(fake);
  }
  EXPECT_EQ(ctx.clock(), 30);
  EXPECT_EQ(ctx.rounds_left, 10);
  EXPECT_EQ(metrics.phases().at("phase_a").rounds, 10);
  EXPECT_EQ(metrics.phases().at("phase_a").entries, 1u);
  EXPECT_EQ(metrics.phases().at("phase_b").activations, 4u);
  EXPECT_EQ(metrics.phases().at("phase_b/inner").rounds, 10);
  // Recorder saw begin/end pairs stamped with the context's clock:
  // phase_b opens at clock 10, after phase_a's rounds accumulated.
  ASSERT_EQ(rec.size(), 6u);
  EXPECT_EQ(rec.events()[0].kind(), EventKind::kPhaseBegin);
  EXPECT_EQ(rec.events()[2].round(), 10);
  EXPECT_EQ(rec.phase_name(rec.events()[2].a()), "phase_b");
  EXPECT_EQ(rec.events()[5].round(), 30);
}

TEST(Metrics, NullContextIsNoOp) {
  PhaseScope p(nullptr, "ghost");
  CompositeContext empty;
  {
    PhaseScope q(&empty, "ghost");
    SimResult fake;
    fake.rounds = 5;
    empty.charge(fake);  // no registry, no recorder: only the clock
  }
  EXPECT_EQ(empty.clock(), 5);
}

TEST(Metrics, RecordSimResultAndEventHistograms) {
  EventRecorder rec;
  rec.record_delivery(2, 0, 1, 1, 2);
  rec.record_delivery(1, 0, 0, 0, 4);
  MetricsRegistry metrics;
  SimResult r;
  r.rounds = 7;
  r.messages_delivered = 2;
  record_sim_result(metrics, r);
  record_event_histograms(metrics, rec);
  EXPECT_EQ(metrics.counters().at("rounds").value(), 7u);
  EXPECT_EQ(metrics.counters().at("messages_delivered").value(), 2u);
  const Histogram& lat = metrics.histograms().at("delivery_latency");
  EXPECT_EQ(lat.count(), 2u);
  EXPECT_EQ(lat.sum(), 5u);  // latencies 4 and 1
  EXPECT_GT(metrics.histograms().at("inflight_depth").count(), 0u);
}

// --- engine integration + golden fingerprints --------------------------

WeightedGraph golden_graph() {
  Rng grng(7);
  auto g = make_erdos_renyi(64, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  return g;
}

// Pinned digests for the seeded runs below. These change ONLY when the
// simulation semantics (contact choices, delivery rounds, drops) or the
// fingerprint definition change — either is a deliberate, reviewable
// event. Update by re-running the test and copying the reported value.
constexpr std::uint64_t kGoldenPushPull = 0x1ecb33cdce522dd6ULL;
constexpr std::uint64_t kGoldenEid = 0x35b57819e65cd3e3ULL;
constexpr std::uint64_t kGoldenTk = 0xfcf84fe9fa795ce6ULL;
constexpr std::uint64_t kGoldenUnknownLatencyEid = 0xa42fedc96c2f46f2ULL;

TEST(GoldenFingerprint, SeededPushPull) {
  const WeightedGraph g = golden_graph();
  EventRecorder rec;
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 1'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(rec.fingerprint(), kGoldenPushPull);
  // Engine-recorded counts agree with the aggregate result.
  EXPECT_EQ(rec.activations(), r.activations);
  EXPECT_EQ(rec.deliveries(), r.messages_delivered);
  // A different protocol seed must not reproduce the digest.
  EventRecorder rec2;
  NetworkView view2(g, false);
  PushPullBroadcast proto2(view2, 0, Rng(4));
  SimOptions opts2;
  opts2.recorder = &rec2;
  opts2.max_rounds = 1'000'000;
  run_gossip(g, proto2, opts2);
  EXPECT_NE(rec2.fingerprint(), kGoldenPushPull);
}

/// What a pinned rumor-gossip run must reproduce.
struct GoldenRun {
  std::uint64_t fingerprint = 0;
  Round rounds = 0;
  std::size_t payload_bits = 0;
  bool operator==(const GoldenRun&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenRun& run) {
  return os << "{0x" << std::hex << run.fingerprint << std::dec << ", "
            << run.rounds << ", " << run.payload_bits << "}";
}

/// `on_oracle` runs the reference oracle instead of the engine.
template <typename P>
GoldenRun golden_run(const WeightedGraph& g, P&& proto,
                     const DynamicSpec& scenario = {},
                     bool stop_when_idle = true, bool on_oracle = false) {
  EventRecorder rec;
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 1'000'000;
  opts.stop_when_idle = stop_when_idle;
  std::optional<DynamicPlan> plan;
  if (scenario.any()) {
    plan.emplace(g.num_nodes(), g.num_edges(), scenario);
    opts.dynamics = &*plan;
  }
  const SimResult r = on_oracle ? run_gossip_oracle(g, proto, opts)
                                : run_gossip(g, proto, opts);
  EXPECT_TRUE(r.completed);
  return {rec.fingerprint(), r.rounds, r.payload_bits};
}

TEST(GoldenFingerprint, SeededRumorGossip) {
  // Uniform push-pull and round-robin flooding share their rumor
  // bookkeeping and differ only in the contact rule; every goal and the
  // churn reset path are pinned for both.
  const WeightedGraph g = golden_graph();
  const NetworkView view(g, false);
  const std::size_t n = g.num_nodes();
  const auto uniform = [&](GossipGoal goal) {
    return PushPullGossip(view, goal, 0, own_id_rumors(n), Rng(3));
  };
  const auto flooding = [&](GossipGoal goal) {
    return PushPullGossip(view, goal, 0, own_id_rumors(n), Rng{},
                          ContactRule::kRoundRobin);
  };
  DynamicSpec churn;
  churn.churn_prob = 0.3;
  churn.churn_window = 16;
  churn.churn_absence = 8;
  churn.churn_mode = 1;  // rejoin with reset
  churn.seed = 5;

  // Single-source uniform gossip draws exactly as PushPullBroadcast.
  EXPECT_EQ(golden_run(g, uniform(GossipGoal::kSingleSource)),
            (GoldenRun{kGoldenPushPull, 18, 2265472}));
  EXPECT_EQ(golden_run(g, uniform(GossipGoal::kAllToAll)),
            (GoldenRun{0x4813660814e8c235ULL, 20, 2789536}));
  EXPECT_EQ(golden_run(g, uniform(GossipGoal::kLocalBroadcast)),
            (GoldenRun{0x5f685c9bf3e08d03ULL, 17, 2004352}));
  EXPECT_EQ(golden_run(g, flooding(GossipGoal::kSingleSource)),
            (GoldenRun{0x471735f731c71be3ULL, 15, 1483584}));
  EXPECT_EQ(golden_run(g, flooding(GossipGoal::kAllToAll)),
            (GoldenRun{0xb30b006174356aa2ULL, 19, 2528256}));
  EXPECT_EQ(golden_run(g, flooding(GossipGoal::kLocalBroadcast)),
            (GoldenRun{0xecd13acfbcbff2dbULL, 14, 1229408}));
  EXPECT_EQ(golden_run(g, uniform(GossipGoal::kAllToAll), churn),
            (GoldenRun{0xa70258fa2690ae3dULL, 27, 3964032}));
  EXPECT_EQ(golden_run(g, flooding(GossipGoal::kAllToAll), churn),
            (GoldenRun{0x1467c04be3a5316eULL, 27, 3972352}));
}

TEST(GoldenFingerprint, SeededBaselines) {
  // Activation events carry the edge id, so these pins also fix which
  // edge each protocol's contact goes over.
  const WeightedGraph g = golden_graph();
  const NetworkView view(g, false);
  const std::size_t n = g.num_nodes();
  std::vector<KvStore> stores;
  std::vector<std::int64_t> values;
  for (NodeId v = 0; v < n; ++v) {
    stores.emplace_back(v);
    stores.back().put("key-" + std::to_string(v), "value");
    values.push_back(static_cast<std::int64_t>((37 * v + 11) % n));
  }

  const auto push_only = [&] {
    return PushPullBroadcast(view, 0, Rng(3), LegRule::kPushOnly);
  };
  const auto pull_only = [&] {
    return PushPullBroadcast(view, 0, Rng(3), LegRule::kResponseOnly);
  };
  EXPECT_EQ(golden_run(g, push_only()),
            (GoldenRun{0xe4c027eee3b43d2dULL, 37, 2894}));
  EXPECT_EQ(golden_run(g, pull_only()),
            (GoldenRun{0x062177eba6bae7b4ULL, 21, 1748}));
  // Under loss and jitter one leg of an exchange may vanish or land
  // rounds before the other, which a node that tells push from response
  // must survive; the oracle must reproduce both runs.
  DynamicSpec lossy;
  lossy.drop_prob = 0.2;
  lossy.jitter_spread = 2;
  const GoldenRun push_only_lossy{0x212f082ca94c63c6ULL, 27, 1422};
  const GoldenRun pull_only_lossy{0x8e6bc01cdbd728b5ULL, 21, 1664};
  for (const bool on_oracle : {false, true}) {
    EXPECT_EQ(golden_run(g, push_only(), lossy, true, on_oracle),
              push_only_lossy);
    EXPECT_EQ(golden_run(g, pull_only(), lossy, true, on_oracle),
              pull_only_lossy);
  }
  // Latency-biased contact: at ρ = 0 every weight is 1, and on these
  // draws the walk over the cumulative weights picks the slot the
  // uniform draw picks.
  const NetworkView known(g, true);
  EXPECT_EQ(golden_run(g, PushPullBroadcast(known, 0, 2.0, Rng(3))),
            (GoldenRun{0x7a28be96750d37e9ULL, 15, 1920}));
  EXPECT_EQ(golden_run(g, PushPullBroadcast(known, 0, 0.0, Rng(3))),
            (GoldenRun{kGoldenPushPull, 18, 2304}));
  EXPECT_EQ(golden_run(g, AntiEntropy(view, std::move(stores), Rng(4))),
            (GoldenRun{0x920794c744acc39cULL, 22, 18808696}));
  EXPECT_EQ(golden_run(g, MinAggregation(view, std::move(values), Rng(5))),
            (GoldenRun{0x6dcafbae1e32b5d8ULL, 16, 131072}));
  // Probes run their whole window (Δ + budget rounds), as
  // discover_latencies() runs them.
  EXPECT_EQ(golden_run(g, ProbeProtocol(view, 4), {}, false),
            (GoldenRun{0x32c181b5f99c052dULL, 19, 1204}));
}

TEST(GoldenFingerprint, SeededRumorSubroutines) {
  // RR broadcast over every edge in both directions, and the G_ell
  // local broadcast under both link rules, run standalone (EID and T(k)
  // pin DTG only inside their composite runs). All three rest between
  // initiations (RR while its last exchanges drain, the others between
  // superrounds), so none may stop when idle.
  const WeightedGraph g = golden_graph();
  const NetworkView known(g, true);
  const std::size_t n = g.num_nodes();
  DirectedGraph two_way(n);
  for (const Edge& e : g.edges()) {
    two_way.add_arc(e.u, e.v, e.latency);
    two_way.add_arc(e.v, e.u, e.latency);
  }

  EXPECT_EQ(golden_run(g, RRBroadcast(known, two_way, 6, own_id_rumors(n)),
                       {}, false),
            (GoldenRun{0x2e523c48c8bf59b9ULL, 102, 22713344}));
  EXPECT_EQ(golden_run(g, DtgLocalBroadcast(known, 3, own_id_rumors(n)), {},
                       false),
            (GoldenRun{0xad2bdaf132946015ULL, 73, 2746368}));
  EXPECT_EQ(golden_run(g,
                       DtgLocalBroadcast(known, 3, own_id_rumors(n),
                                         LinkRule::kUniformUnheard, Rng(3)),
                       {}, false),
            (GoldenRun{0x875b3109a879fb7aULL, 15, 100864}));
}

TEST(GoldenFingerprint, SeededGeneralEid) {
  const WeightedGraph g = golden_graph();
  EventRecorder rec;
  MetricsRegistry metrics;
  CompositeContext ctx(&rec, &metrics);
  Rng rng(5);
  const auto out = run_general_eid(g, 0, rng, 1, &ctx);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(rec.fingerprint(), kGoldenEid);
  // All four EID phases were tagged.
  EXPECT_TRUE(metrics.phases().count("eid/local_broadcast"));
  EXPECT_TRUE(metrics.phases().count("eid/spanner"));
  EXPECT_TRUE(metrics.phases().count("eid/rr_broadcast"));
  EXPECT_TRUE(metrics.phases().count("eid/termination_check"));
  // Phase rounds account for the whole run on the context's clock.
  EXPECT_EQ(ctx.clock(), out.sim.rounds);
}

TEST(GoldenFingerprint, SeededPathDiscovery) {
  const WeightedGraph g = golden_graph();
  EventRecorder rec;
  MetricsRegistry metrics;
  CompositeContext ctx(&rec, &metrics);
  const auto out = run_path_discovery(g, &ctx);
  ASSERT_TRUE(out.success);
  EXPECT_EQ(rec.fingerprint(), kGoldenTk);
  // The stream spans multiple engine runs, so rounds restart.
  EXPECT_FALSE(rec.round_monotone());
  EXPECT_TRUE(metrics.phases().count("tk/termination_check"));
  bool any_dtg = false;
  for (const auto& [name, stats] : metrics.phases())
    any_dtg |= name.rfind("tk/dtg_ell_", 0) == 0;
  EXPECT_TRUE(any_dtg);
}

TEST(GoldenFingerprint, SeededUnknownLatencyEid) {
  // Every probe phase, EID attempt and check, recorded and phase-tagged
  // like General EID's, with the probes as their own phase.
  EventRecorder rec;
  MetricsRegistry metrics;
  CompositeContext ctx(&rec, &metrics);
  Rng rng(5);
  const auto out = run_unknown_latency_eid(golden_graph(), 0, rng, &ctx);
  EXPECT_EQ(rec.fingerprint(), kGoldenUnknownLatencyEid);
  EXPECT_TRUE(metrics.phases().count("eid/latency_discovery"));
  EXPECT_TRUE(metrics.phases().count("eid/termination_check"));
  EXPECT_EQ(ctx.clock(), out.sim.rounds);
  EXPECT_EQ(out.sim.rounds, 3787);
  EXPECT_EQ(out.sim.activations, 114358u);
  EXPECT_EQ(out.sim.payload_bits, 449721200u);
  EXPECT_EQ(out.final_estimate, 8);
  EXPECT_EQ(out.attempts, 4u);
  EXPECT_TRUE(out.success);
}

// --- exports -----------------------------------------------------------

TEST(Trace, RecordsEveryActivation) {
  const auto g = make_path(4);
  NetworkView view(g, false);
  PushPullGossip proto(view, GossipGoal::kAllToAll, 0, own_id_rumors(4),
                       Rng{}, ContactRule::kRoundRobin);
  EventRecorder rec;
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 10'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(rec.activations(), r.activations);
}

TEST(Trace, PerRoundAndPerEdgeCounts) {
  GraphBuilder b(3);
  const EdgeId e01 = b.add_edge(0, 1, 1);
  const EdgeId e12 = b.add_edge(1, 2, 1);
  const WeightedGraph g = b.build();

  struct TwoShots {
    EdgeId e01, e12;
    using Payload = int;
    std::optional<HalfEdge> select_contact(NodeId u, Round r) {
      if (u == 0 && r == 0) return HalfEdge{1, e01};
      if (u == 1 && r == 2) return HalfEdge{2, e12};
      return std::nullopt;
    }
    Payload capture_payload(NodeId, Round) const { return 0; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round, Leg) {}
    bool done(Round) const { return false; }
  } proto{e01, e12};

  EventRecorder rec(EventLog::kKeep);
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 10;
  opts.stop_when_idle = false;  // round 1 is silent by design
  run_gossip(g, proto, opts);
  EXPECT_EQ(activations_in_round(rec, 0), 1u);
  EXPECT_EQ(activations_in_round(rec, 1), 0u);
  EXPECT_EQ(activations_in_round(rec, 2), 1u);
  const auto counts = per_edge_counts(rec, g.num_edges());
  EXPECT_EQ(counts[e01], 1u);
  EXPECT_EQ(counts[e12], 1u);
}

TEST(Trace, CsvFormat) {
  // The activation CSV keeps the historical trace format byte for byte:
  // header, then "round,initiator,responder,edge" per activation.
  const auto g = build_graph(2, {{0, 1, 1}});
  struct OneShot {
    using Payload = int;
    std::optional<HalfEdge> select_contact(NodeId u, Round r) {
      if (u == 0 && r == 0) return HalfEdge{1, 0};
      return std::nullopt;
    }
    Payload capture_payload(NodeId, Round) const { return 0; }
    void deliver(NodeId, NodeId, Payload, EdgeId, Round, Round, Leg) {}
    bool done(Round) const { return false; }
  } proto;
  EventRecorder rec(EventLog::kKeep);
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 5;
  run_gossip(g, proto, opts);
  EXPECT_EQ(activations_to_csv(rec),
            "round,initiator,responder,edge\n0,0,1,0\n");
  rec.clear();
  EXPECT_EQ(rec.activations(), 0u);
  EXPECT_EQ(activations_to_csv(rec), "round,initiator,responder,edge\n");
}

TEST(Export, CsvByteCompatibleWithSimTrace) {
  // A full seeded run exports one CSV row per activation, in record
  // order, each row the "round,initiator,responder,edge" of its event.
  const WeightedGraph g = golden_graph();
  NetworkView view(g, false);
  PushPullBroadcast proto(view, 0, Rng(3));
  EventRecorder rec(EventLog::kKeep);
  SimOptions opts;
  opts.recorder = &rec;
  opts.max_rounds = 1'000'000;
  const SimResult r = run_gossip(g, proto, opts);
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.activations, 0u);

  std::istringstream csv(activations_to_csv(rec));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "round,initiator,responder,edge");
  std::size_t rows = 0;
  for (const Event& e : rec.events()) {
    if (e.kind() != EventKind::kActivation) continue;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, std::to_string(e.round()) + ',' + std::to_string(e.a()) +
                        ',' + std::to_string(e.b()) + ',' +
                        std::to_string(e.edge()));
    ++rows;
  }
  EXPECT_FALSE(std::getline(csv, line));
  EXPECT_EQ(rows, r.activations);
}

TEST(Export, ChromeTraceStructure) {
  EventRecorder rec(EventLog::kKeep);
  MetricsRegistry metrics;
  CompositeContext ctx(&rec, &metrics);
  {
    PhaseScope p(&ctx, "demo");
    rec.record_activation(0, 1, 0, 0);
    rec.record_delivery(1, 0, 0, 0, 3);
    rec.record_drop(2, 0, 1, 0, 2, false);
    SimResult r;
    r.rounds = 3;
    ctx.charge(r);
  }
  const std::string json = to_chrome_trace_json(rec);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // activation
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // delivery span
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);  // phase begin
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);  // phase end
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);  // delivery 0 -> 3
  EXPECT_NE(json.find("demo"), std::string::npos);
  // Braces and brackets balance (cheap structural sanity, no parser dep).
  int depth = 0, sq = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}') --depth;
    else if (c == '[') ++sq;
    else if (c == ']') --sq;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(sq, 0);
}

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(Export, PeakRssIsMonotoneHighWaterMark) {
  const std::size_t before = peak_rss_bytes();
#ifdef __linux__
  EXPECT_GT(before, 0u);  // /proc/self/status always has VmHWM on Linux
#endif
  // Touch a real allocation, then re-read: the mark never decreases.
  std::vector<char> ballast(8 << 20, 1);
  EXPECT_NE(ballast[4 << 20], 0);
  EXPECT_GE(peak_rss_bytes(), before);
}

TEST(Export, ManifestRecordFieldsAndJsonl) {
  RunInfo info;
  info.tool = "obs_test";
  info.protocol = "pushpull";
  info.graph_source = "er";
  info.graph_params = "n=64,p=0.15";
  info.nodes = 64;
  info.edges = 300;
  info.seed = 42;
  info.threads = 2;
  info.threads_effective = 2;
  info.threads_env = "2";
  SimResult r;
  r.rounds = 18;
  r.completed = true;
  r.fingerprint = 0xabcdULL;
  MetricsRegistry metrics;
  metrics.counter("rounds").inc(18);
  const std::string line =
      manifest_record(info, 0, 99, r, 1.5, metrics_json(metrics));
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single JSONL line
  for (const char* key :
       {"\"schema\":\"latgossip.run.v1\"", "\"build\":", "\"git\":",
        "\"tool\":\"obs_test\"", "\"protocol\":\"pushpull\"",
        "\"params\":\"n=64,p=0.15\"", "\"nodes\":64", "\"seed\":42",
        "\"threads\":2", "\"threads_effective\":2", "\"threads_env\":\"2\"",
        "\"trial\":0", "\"trial_seed\":99", "\"rounds\":18",
        "\"completed\":true", "\"fingerprint\":\"0x000000000000abcd\"",
        "\"wall_ms\":1.500", "\"peak_rss_bytes\":", "\"metrics\":",
        "\"counters\":"}) {
    EXPECT_NE(line.find(key), std::string::npos) << "missing " << key;
  }

  // threads_env records the LATGOSSIP_THREADS override; when the
  // producer ran without one the key is omitted, not emitted empty.
  info.threads_env.clear();
  const std::string no_env =
      manifest_record(info, 0, 99, r, 1.5, metrics_json(metrics));
  EXPECT_EQ(no_env.find("\"threads_env\""), std::string::npos);
  EXPECT_NE(no_env.find("\"threads_effective\":2"), std::string::npos);
}

TEST(Export, BuildInfoPopulated) {
  const BuildInfo b = build_info();
  EXPECT_NE(b.git_hash, nullptr);
  EXPECT_NE(b.compiler, nullptr);
  EXPECT_STRNE(b.compiler, "");
  const std::string json = build_info_json();
  EXPECT_NE(json.find("\"git\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
}

}  // namespace
}  // namespace latgossip
