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
#include "obs/metrics.h"
#include "sim/dynamics.h"
#include "sim/engine.h"

namespace latgossip {
namespace {

/// Everything one simple-protocol run produces that the comparison and
/// the invariant checks need afterwards.
struct RunArtifacts {
  SimResult result;
  EventRecorder recorder{EventLog::kKeep};  ///< the invariants read it
  std::vector<Round> inform_round;  ///< boolean broadcasts only
  bool has_inform = false;
};

/// One simple-protocol execution on the engine or the oracle, with the
/// case's model knobs and scenario and a protocol seeded identically on
/// both sides (the oracle reads only the plan's spec()).
RunArtifacts run_simple_once(const TestCase& tc, const WeightedGraph& g,
                             bool use_oracle,
                             const oracle_detail::ModelBug& bug) {
  RunArtifacts a;
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
void compare_field(DiffReport& rep, const char* name, const T& engine,
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
  rep.engine_result = engine.result;
  rep.oracle_result = oracle.result;
  rep.engine_fingerprint = engine.result.fingerprint;
  rep.oracle_fingerprint = oracle.result.fingerprint;
  compare_sim_results(rep, engine.result, oracle.result);

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

/// Run a composite algorithm once; `body(obs)` does the actual call and
/// returns its outcome struct. The oracle side wraps the call in a
/// ScopedOracleEngine so every internal dispatch_gossip() is rerouted.
template <typename Body>
auto run_composite_once(bool use_oracle, EventRecorder& rec, Body&& body) {
  ObsContext obs{&rec, nullptr};
  std::optional<ScopedOracleEngine> guard;
  if (use_oracle) guard.emplace();
  return body(&obs);
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

  switch (tc.proto) {
    case CheckProto::kUnified: {
      auto body = [&](ObsContext* obs) {
        Rng rng(tc.seed);
        UnifiedOptions uo;
        uo.obs = obs;
        return run_unified(g, uo, rng);
      };
      const UnifiedOutcome e = run_composite_once(false, engine_rec, body);
      const UnifiedOutcome o = run_composite_once(true, oracle_rec, body);
      compare_field(rep, "push_pull_rounds", e.push_pull_rounds,
                    o.push_pull_rounds);
      compare_field(rep, "push_pull_completed", e.push_pull_completed,
                    o.push_pull_completed);
      compare_field(rep, "spanner_rounds", e.spanner_rounds, o.spanner_rounds);
      compare_field(rep, "spanner_completed", e.spanner_completed,
                    o.spanner_completed);
      compare_field(rep, "unified_rounds", e.unified_rounds, o.unified_rounds);
      compare_field(rep, "winner", static_cast<int>(e.winner),
                    static_cast<int>(o.winner));
      compare_field(rep, "completed", e.completed, o.completed);
      break;
    }
    case CheckProto::kEid: {
      auto body = [&](ObsContext* obs) {
        Rng rng(tc.seed);
        return run_general_eid(g, /*n_hat=*/0, rng, /*initial_guess=*/1, obs);
      };
      const GeneralEidOutcome e = run_composite_once(false, engine_rec, body);
      const GeneralEidOutcome o = run_composite_once(true, oracle_rec, body);
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
      auto body = [&](ObsContext* obs) {
        return run_tk_schedule(g, tc.tk_estimate, own_id_rumors(tc.num_nodes),
                               obs);
      };
      const TkOutcome e = run_composite_once(false, engine_rec, body);
      const TkOutcome o = run_composite_once(true, oracle_rec, body);
      rep.engine_result = e.sim;
      rep.oracle_result = o.sim;
      compare_sim_results(rep, e.sim, o.sim);
      compare_field(rep, "all_to_all", e.all_to_all, o.all_to_all);
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
