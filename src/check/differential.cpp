#include "check/differential.h"

#include <optional>
#include <sstream>
#include <utility>

#include "check/invariants.h"
#include "core/dtg.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "core/tk_schedule.h"
#include "core/unified.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/dynamics.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

/// Everything one simple-protocol run produces that the comparison and
/// the invariant checks need afterwards.
struct RunArtifacts {
  SimResult result;
  /// Log-keeping for the invariants, which read the events; folding for
  /// the folded-state comparison.
  EventRecorder recorder;
  std::vector<Round> inform_round;  ///< boolean broadcasts only
  bool has_inform = false;
};

/// One simple-protocol execution on the engine or the oracle, with the
/// case's model knobs and scenario and a protocol seeded identically on
/// both sides (the oracle reads only the plan's spec()).
RunArtifacts run_simple_once(const TestCase& tc, const WeightedGraph& g,
                             bool use_oracle,
                             const oracle_detail::ModelBug& bug,
                             EventLog log = EventLog::kKeep) {
  RunArtifacts a;
  a.recorder = EventRecorder(log);
  SimOptions opts;
  opts.max_rounds = tc.max_rounds;
  opts.blocking = tc.blocking;
  opts.max_incoming_per_round = tc.max_incoming_per_round;
  opts.recorder = &a.recorder;
  std::optional<DynamicPlan> plan;
  if (tc.dynamics.any()) {
    plan.emplace(tc.num_nodes, g.num_edges(), scenario_of(tc));
    opts.dynamics = &*plan;
  }

  NetworkView view(g, /*latencies_known=*/false);
  auto drive = [&](auto& proto) {
    return use_oracle ? run_gossip_oracle(g, proto, opts, bug)
                      : run_gossip(g, proto, opts);
  };
  auto broadcast = [&](PushPullBroadcast proto) {
    a.result = drive(proto);
    a.inform_round.resize(tc.num_nodes);
    for (NodeId u = 0; u < tc.num_nodes; ++u)
      a.inform_round[u] = proto.inform_round(u);
    a.has_inform = true;
  };
  switch (tc.proto) {
    case CheckProto::kPushPull:
      broadcast(PushPullBroadcast(view, tc.source, Rng(tc.seed)));
      break;
    case CheckProto::kPushOnly:
      broadcast(PushPullBroadcast(view, tc.source, Rng(tc.seed),
                                  LegRule::kPushOnly));
      break;
    case CheckProto::kPullOnly:
      broadcast(PushPullBroadcast(view, tc.source, Rng(tc.seed),
                                  LegRule::kResponseOnly));
      break;
    case CheckProto::kBiased:
      broadcast(PushPullBroadcast(NetworkView(g, /*latencies_known=*/true),
                                  tc.source, tc.rho, Rng(tc.seed)));
      break;
    case CheckProto::kFlooding: {
      PushPullGossip proto(view, GossipGoal::kSingleSource, tc.source,
                           own_id_rumors(tc.num_nodes), Rng{},
                           ContactRule::kRoundRobin);
      a.result = drive(proto);
      break;
    }
    // Rumor-set goals exercise the copy-on-write snapshot payload path
    // (util/snapshot.h) against the oracle's naive deep-copy captures —
    // any stale or aliased snapshot shows up as a divergence here.
    case CheckProto::kGossipAllToAll: {
      PushPullGossip proto(view, GossipGoal::kAllToAll, tc.source,
                           own_id_rumors(tc.num_nodes),
                           Rng(tc.seed));
      a.result = drive(proto);
      break;
    }
    case CheckProto::kGossipLocal: {
      PushPullGossip proto(view, GossipGoal::kLocalBroadcast, tc.source,
                           own_id_rumors(tc.num_nodes),
                           Rng(tc.seed));
      a.result = drive(proto);
      break;
    }
    // DTG under each link rule, standalone with ell = the case's k. Both
    // rules act only on superround boundaries, so idle stop is off.
    case CheckProto::kLocalDtg:
    case CheckProto::kLocalRandom: {
      opts.stop_when_idle = false;
      DtgLocalBroadcast proto(NetworkView(g, /*latencies_known=*/true),
                              tc.tk_estimate, own_id_rumors(tc.num_nodes),
                              tc.proto == CheckProto::kLocalDtg
                                  ? LinkRule::kScript
                                  : LinkRule::kUniformUnheard,
                              Rng(tc.seed));
      a.result = drive(proto);
      break;
    }
    default:
      throw std::logic_error("run_simple_once: composite protocol");
  }
  a.result.fingerprint = a.recorder.fingerprint();
  return a;
}

template <typename T>
void compare_field(DiffReport& rep, std::string_view name, const T& engine,
                   const T& oracle) {
  if (engine == oracle) return;
  std::ostringstream os;
  os << name << " diverged: engine=" << engine << " oracle=" << oracle;
  rep.failures.push_back(os.str());
}

void compare_sim_results(DiffReport& rep, const SimResult& e,
                         const SimResult& o) {
  compare_field(rep, "rounds", e.rounds, o.rounds);
  compare_field(rep, "completed", e.completed, o.completed);
  compare_field(rep, "activations", e.activations, o.activations);
  compare_field(rep, "messages_delivered", e.messages_delivered,
                o.messages_delivered);
  compare_field(rep, "messages_dropped", e.messages_dropped,
                o.messages_dropped);
  compare_field(rep, "exchanges_rejected", e.exchanges_rejected,
                o.exchanges_rejected);
  compare_field(rep, "payload_bits", e.payload_bits, o.payload_bits);
  compare_field(rep, "max_inflight", e.max_inflight, o.max_inflight);
  compare_field(rep, "fingerprint", e.fingerprint, o.fingerprint);
}

/// An engine run's folding recorder against the oracle's recorder: the
/// per-kind counts, size, max round, monotone flag, fingerprint and
/// event histograms. The engine folds whole buckets where the oracle
/// records event by event, so this is what checks the bucket fold.
void compare_folded(DiffReport& rep, const EventRecorder& fold,
                    const EventRecorder& oracle) {
  static constexpr const char* kKindNames[kNumEventKinds] = {
      "activation", "delivery", "drop", "crash_drop", "phase_begin",
      "phase_end"};
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    compare_field(rep, std::string("folded count(") + kKindNames[k] + ")",
                  fold.count(kind), oracle.count(kind));
  }
  compare_field(rep, "folded size", fold.size(), oracle.size());
  compare_field(rep, "folded max_round", fold.max_round(),
                oracle.max_round());
  compare_field(rep, "folded round_monotone", fold.round_monotone(),
                oracle.round_monotone());
  compare_field(rep, "folded fingerprint", fold.fingerprint(),
                oracle.fingerprint());
  MetricsRegistry folded, reference;
  record_event_histograms(folded, fold);
  record_event_histograms(reference, oracle);
  compare_field(rep, "folded event histograms", metrics_json(folded),
                metrics_json(reference));
}

void apply_invariants(DiffReport& rep, const InvariantInput& in,
                      const std::string& label) {
  for (std::string& f : check_invariants(in, label))
    rep.failures.push_back(std::move(f));
}

DiffReport diff_simple(const TestCase& tc, const WeightedGraph& g,
                       const oracle_detail::ModelBug& bug) {
  DiffReport rep;
  const RunArtifacts engine = run_simple_once(tc, g, /*use_oracle=*/false, {});
  const RunArtifacts oracle = run_simple_once(tc, g, /*use_oracle=*/true, bug);
  const RunArtifacts folding =
      run_simple_once(tc, g, /*use_oracle=*/false, {}, EventLog::kFold);
  rep.engine_result = engine.result;
  rep.oracle_result = oracle.result;
  rep.engine_fingerprint = engine.result.fingerprint;
  rep.oracle_fingerprint = oracle.result.fingerprint;
  compare_sim_results(rep, engine.result, oracle.result);
  compare_folded(rep, folding.recorder, oracle.recorder);

  for (const RunArtifacts* side : {&engine, &oracle}) {
    InvariantInput in;
    in.graph = &g;
    in.result = side->result;
    in.recorder = &side->recorder;
    // Jitter, drift and the adversary perturb delivered latencies, so
    // the latency-conformance invariant degrades to its weaker (>= 1)
    // form for them.
    in.jitter_active = tc.dynamics.affects_latency();
    in.dynamics = tc.dynamics.any() ? &tc.dynamics : nullptr;
    // Rejoin-with-reset can un-inform a node, so inform-round
    // monotonicity only survives under retain-mode churn.
    const bool resets_possible =
        tc.dynamics.churn_active() && tc.dynamics.churn_mode != 0;
    if (side->has_inform && !resets_possible)
      in.inform_round = &side->inform_round;
    in.source = tc.source;
    apply_invariants(rep, in, side == &engine ? "engine" : "oracle");
  }
  rep.ok = rep.failures.empty();
  return rep;
}

/// Run a composite algorithm once under the case's round budget;
/// `body(ctx)` does the actual call and returns its outcome struct. The
/// oracle side wraps the call in a ScopedOracleEngine so every internal
/// dispatch_gossip() is rerouted.
template <typename Body>
auto run_composite_once(const TestCase& tc, bool use_oracle,
                        CompositeContext& ctx, Body&& body) {
  ctx.rounds_left = tc.max_rounds;
  std::optional<ScopedOracleEngine> guard;
  if (use_oracle) guard.emplace();
  return body(&ctx);
}

void composite_invariants(DiffReport& rep, const WeightedGraph& g,
                          const EventRecorder& rec, const std::string& label) {
  InvariantInput in;
  in.graph = &g;
  in.recorder = &rec;
  in.multi_phase = true;
  apply_invariants(rep, in, label);
}

DiffReport diff_composite(const TestCase& tc, const WeightedGraph& g) {
  DiffReport rep;
  EventRecorder engine_rec(EventLog::kKeep);
  EventRecorder oracle_rec(EventLog::kKeep);
  EventRecorder fold_rec;
  CompositeContext engine_ctx(&engine_rec);
  CompositeContext oracle_ctx(&oracle_rec);
  CompositeContext fold_ctx(&fold_rec);
  // The engine once more, into a folding recorder, for compare_folded.
  const auto fold = [&](auto& body) {
    run_composite_once(tc, false, fold_ctx, body);
  };

  switch (tc.proto) {
    case CheckProto::kUnified: {
      auto body = [&](CompositeContext* ctx) {
        Rng rng(tc.seed);
        UnifiedOptions uo;
        uo.latencies_known = tc.latencies_known;
        return run_unified(g, uo, rng, ctx);
      };
      const UnifiedOutcome e = run_composite_once(tc, false, engine_ctx, body);
      const UnifiedOutcome o = run_composite_once(tc, true, oracle_ctx, body);
      fold(body);
      rep.engine_result = e.sim;
      rep.oracle_result = o.sim;
      compare_sim_results(rep, e.sim, o.sim);
      compare_field(rep, "winner", static_cast<int>(e.winner),
                    static_cast<int>(o.winner));
      break;
    }
    case CheckProto::kEid: {
      auto body = [&](CompositeContext* ctx) {
        Rng rng(tc.seed);
        return run_general_eid(g, /*n_hat=*/0, rng, /*initial_guess=*/1, ctx);
      };
      const DoublingOutcome e = run_composite_once(tc, false, engine_ctx, body);
      const DoublingOutcome o = run_composite_once(tc, true, oracle_ctx, body);
      fold(body);
      rep.engine_result = e.sim;
      rep.oracle_result = o.sim;
      compare_sim_results(rep, e.sim, o.sim);
      compare_field(rep, "final_estimate", e.final_estimate, o.final_estimate);
      compare_field(rep, "attempts", e.attempts, o.attempts);
      compare_field(rep, "success", e.success, o.success);
      compare_field(rep, "checks_unanimous", e.checks_unanimous,
                    o.checks_unanimous);
      if (e.rumors != o.rumors)
        rep.failures.push_back("final rumor sets diverged");
      break;
    }
    case CheckProto::kTk: {
      auto body = [&](CompositeContext* ctx) {
        return run_tk_schedule(g, tc.tk_estimate, own_id_rumors(tc.num_nodes),
                               ctx);
      };
      const TkOutcome e = run_composite_once(tc, false, engine_ctx, body);
      const TkOutcome o = run_composite_once(tc, true, oracle_ctx, body);
      fold(body);
      rep.engine_result = e.sim;
      rep.oracle_result = o.sim;
      compare_sim_results(rep, e.sim, o.sim);
      if (e.rumors != o.rumors)
        rep.failures.push_back("final rumor sets diverged");
      break;
    }
    default:
      throw std::logic_error("diff_composite: simple protocol");
  }

  rep.engine_fingerprint = engine_rec.fingerprint();
  rep.oracle_fingerprint = oracle_rec.fingerprint();
  compare_field(rep, "event fingerprint", rep.engine_fingerprint,
                rep.oracle_fingerprint);
  compare_field(rep, "clock", engine_ctx.clock(), oracle_ctx.clock());
  compare_field(rep, "rounds left", engine_ctx.rounds_left,
                oracle_ctx.rounds_left);
  rep.budget_cut = engine_ctx.rounds_left == 0;
  compare_folded(rep, fold_rec, oracle_rec);
  composite_invariants(rep, g, engine_rec, "engine");
  composite_invariants(rep, g, oracle_rec, "oracle");
  rep.ok = rep.failures.empty();
  return rep;
}

}  // namespace

DiffReport run_differential(const TestCase& tc,
                            const oracle_detail::ModelBug& bug) {
  const WeightedGraph g = materialize_graph(tc);
  if (check_proto_is_composite(tc.proto)) {
    // The bug knob only exists on the direct oracle entry point; the
    // shrinker self-test (its only user) sticks to simple protocols.
    return diff_composite(tc, g);
  }
  return diff_simple(tc, g, bug);
}

}  // namespace latgossip
