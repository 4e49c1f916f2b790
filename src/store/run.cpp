#include "store/run.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/eid.h"
#include "core/push_pull.h"
#include "core/tk_schedule.h"
#include "core/unified.h"
#include "graph/gadgets.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "store/json.h"
#include "store/key.h"

namespace latgossip {

namespace {

WeightedGraph generate_family(const GraphSpec& s, Rng& rng) {
  const std::string& f = s.family;
  if (f == "clique") return make_clique(s.n);
  if (f == "cycle") return make_cycle(s.n);
  if (f == "path") return make_path(s.n);
  if (f == "star") return make_star(s.n);
  if (f == "ring") return make_cycle(s.n);
  if (f == "torus") return make_grid(s.rows, s.cols, true);
  if (f == "grid") return make_grid(s.rows, s.cols);
  if (f == "er")
    return s.streaming ? make_erdos_renyi_streaming(s.n, s.p, s.seed)
                       : make_erdos_renyi(s.n, s.p, rng);
  if (f == "regular")
    return s.streaming ? make_random_regular_streaming(s.n, s.d, s.seed)
                       : make_random_regular(s.n, s.d, rng);
  if (f == "ws") return make_watts_strogatz(s.n, s.k, s.beta, rng);
  if (f == "ba") {  // streaming: own Rng, so `rng` is fresh for latencies
    Rng own(s.seed);
    return make_barabasi_albert(s.n, s.attach, s.streaming ? own : rng);
  }
  if (f == "ring_cliques")
    return make_ring_of_cliques(s.cliques, s.size, s.bridge);
  if (f == "dumbbell") return make_dumbbell(s.size, 1, s.bridge);
  if (f == "thm8")
    return make_theorem8_network(s.n, s.alpha, s.ell, rng).graph;
  throw std::invalid_argument("unknown family '" + f + "'");
}

bool single_phase(const std::string& protocol) {
  return protocol == "pushpull" || protocol == "flooding";
}

/// Per-round informed-node counts from a finished PushPullBroadcast:
/// curve[r] = |{v : inform_round(v) <= r}| for r in [0, rounds].
std::vector<std::uint32_t> informed_curve(const PushPullBroadcast& proto,
                                          std::size_t n, Round rounds) {
  std::vector<std::uint32_t> curve(static_cast<std::size_t>(rounds) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const Round r = proto.inform_round(v);
    if (r >= 0 && r <= rounds) ++curve[static_cast<std::size_t>(r)];
  }
  for (std::size_t i = 1; i < curve.size(); ++i) curve[i] += curve[i - 1];
  return curve;
}

}  // namespace

WeightedGraph generate_graph(const GraphSpec& spec) {
  Rng rng(spec.seed);
  WeightedGraph g = generate_family(spec, rng);
  if (spec.latency == LatencyModel::kUniform)
    assign_uniform_latency(g, spec.lat_lo);
  else if (spec.latency == LatencyModel::kRange)
    assign_random_uniform_latency(g, spec.lat_lo, spec.lat_hi, rng);
  else if (spec.latency == LatencyModel::kTwoLevel)
    assign_two_level_latency(g, spec.lat_lo, spec.lat_hi, spec.lat_p_fast,
                             rng);
  return g;
}

std::size_t spec_size(const char* field, std::int64_t value) {
  if (value < 0)
    throw std::invalid_argument(std::string(field) + " must be >= 0");
  return static_cast<std::size_t>(value);
}

void validate_run(const RunSpec& spec, std::size_t num_nodes) {
  if (!single_phase(spec.protocol) && spec.protocol != "eid" &&
      spec.protocol != "tk" && spec.protocol != "unified")
    throw std::invalid_argument("unknown protocol '" + spec.protocol + "'");
  if (spec.trials < 1 || spec.trials > 1'000'000)
    throw std::invalid_argument("trials must be in [1, 1000000]");
  if (spec.source < 0 || static_cast<std::uint64_t>(spec.source) >= num_nodes)
    throw std::invalid_argument("source out of range");
  if (spec.max_rounds < 0)
    throw std::invalid_argument("max_rounds must be >= 0");
  if (spec.dynamics.any() && !single_phase(spec.protocol))
    throw std::invalid_argument(
        "--dynamics only applies to --proto=pushpull|flooding; composite "
        "protocols own their SimOptions");
}

std::string protocol_label(const RunSpec& spec) {
  // The cell-key protocol and manifest field that existing stores and
  // manifests already hold for flooding: keeping it keeps them hitting.
  if (spec.protocol == "flooding") return "flooding/dense";
  return spec.protocol;
}

RunOutcome execute(const RunSpec& spec, const WeightedGraph& g,
                   const RunSinks& sinks) {
  const std::size_t n = g.num_nodes();
  validate_run(spec, n);
  if (sinks.curves && spec.protocol != "pushpull")
    throw std::invalid_argument(
        "--curve-out needs per-node inform rounds; only --proto=pushpull "
        "exposes them");
  const auto trials = static_cast<std::size_t>(spec.trials);
  const auto source = static_cast<NodeId>(spec.source);
  const std::string& trace_path = sinks.trace_path;
  const bool tracing = !trace_path.empty();
  const bool manifest = !sinks.manifest_path.empty();
  const bool recording = sinks.store != nullptr || tracing || manifest;
  const bool want_freshness = sinks.freshness || manifest;
  const bool trace_json = std::string_view(trace_path).ends_with(".json");

  // Pre-sized so worker threads write disjoint slots.
  RunOutcome out;
  out.recorded = recording;
  if (sinks.freshness) out.freshness.resize(trials);
  if (sinks.curves) out.curves.resize(trials);
  if (tracing) out.trace_events.resize(trials);
  if (spec.protocol == "unified") out.winners.resize(trials);
  std::vector<std::string> metrics_snapshots(manifest ? trials : 0);

  const TrialWsFn trial = [&](std::size_t t, Rng rng,
                              TrialWorkspace& ws) -> SimResult {
    // One recorder per worker thread: clear() keeps its storage, as the
    // workspace keeps the engine queue and the push-pull protocol. Only
    // the trace export reads the events themselves.
    thread_local EventRecorder folding;
    thread_local EventRecorder logging(EventLog::kKeep);
    EventRecorder& recorder = tracing ? logging : folding;
    recorder.clear();
    // Composite protocols stamp phase boundaries with the registry's
    // clock, so recording always carries a registry.
    MetricsRegistry metrics;
    ObsContext obs{&recorder, &metrics};
    ObsContext* obs_ptr = recording ? &obs : nullptr;
    SimOptions opts;
    opts.max_rounds = spec.max_rounds;
    opts.workspace = &ws;
    if (recording) opts.recorder = &recorder;
    // Every trial replays the spec's scenario with its own randomness.
    std::optional<DynamicPlan> plan;
    if (spec.dynamics.any()) {
      plan.emplace(n, g.num_edges(), spec.dynamics);
      opts.dynamics = &*plan;
    }
    SimResult result;
    FreshnessStats freshness;
    if (spec.protocol == "pushpull") {
      const NetworkView view(g, false);
      auto& proto = ws.slot<PushPullBroadcast>(view, source, rng);
      proto.reset(view, source, rng);
      result = run_gossip(g, proto, opts);
      if (want_freshness) freshness = freshness_of(proto, n, result.rounds);
      if (sinks.curves) out.curves[t] = informed_curve(proto, n, result.rounds);
    } else if (spec.protocol == "flooding") {
      const NetworkView view(g, false);
      PushPullGossip proto(view, GossipGoal::kAllToAll, source,
                           own_id_rumors(n), Rng{}, ContactRule::kRoundRobin);
      result = run_gossip(g, proto, opts);
      if (want_freshness) freshness = freshness_of(proto, n, result.rounds);
    } else if (spec.protocol == "eid") {
      const GeneralEidOutcome eid = run_general_eid(g, 0, rng, 1, obs_ptr, &ws);
      result = eid.sim;
      result.completed = eid.success;
    } else if (spec.protocol == "tk") {
      const PathDiscoveryOutcome tk = run_path_discovery(g, obs_ptr);
      result = tk.sim;
      result.completed = tk.success;
    } else {
      UnifiedOptions uopts;
      uopts.latencies_known = spec.known_latencies;
      uopts.obs = obs_ptr;
      const UnifiedOutcome unified = run_unified(g, uopts, rng);
      result.rounds = unified.unified_rounds;
      result.completed = unified.completed;
      out.winners[t] =
          unified.winner == UnifiedWinner::kPushPull ? "push-pull" : "spanner";
    }
    if (recording) result.fingerprint = recorder.fingerprint();
    if (sinks.freshness) out.freshness[t] = freshness;
    if (manifest) {
      record_sim_result(metrics, result);
      record_event_histograms(metrics, recorder);
      record_freshness(metrics, freshness);
      metrics_snapshots[t] = metrics_json(metrics);
    }
    if (tracing) {
      out.trace_events[t] = recorder.size();
      write_text_file(trial_trace_path(trace_path, t, trials),
                      trace_json ? to_chrome_trace_json(recorder)
                                 : activations_to_csv(recorder));
    }
    return result;
  };

  ManifestSpec manifest_spec;
  if (manifest) {
    manifest_spec.path = sinks.manifest_path;
    manifest_spec.info = sinks.manifest_info;
    manifest_spec.info.protocol = protocol_label(spec);
    manifest_spec.info.nodes = n;
    manifest_spec.info.edges = g.num_edges();
    manifest_spec.info.seed = spec.seed;
    manifest_spec.info.threads = spec.threads;
    manifest_spec.metrics_json_snapshot = [&](std::size_t t) {
      return metrics_snapshots[t];
    };
  }
  const ManifestSpec* mspec = manifest ? &manifest_spec : nullptr;

  if (sinks.store == nullptr) {
    out.agg = run_trials(trials, spec.threads, spec.seed, trial, mspec);
    return out;
  }
  StoreBinding binding;
  binding.store = sinks.store;
  binding.verify = sinks.store_verify || tracing;
  binding.cell.protocol = protocol_label(spec);
  binding.cell.graph =
      sinks.graph_digest ? *sinks.graph_digest : graph_digest(g);
  binding.cell.source = source;
  binding.cell.max_rounds = spec.max_rounds;
  binding.cell.faults = canonical_dynamics(spec.dynamics);
  if (sinks.curves) {
    binding.cell.kind = "curve";
    binding.meta_fn = [&](std::size_t t) {
      std::string meta = "{\"curve\":[";
      for (std::size_t i = 0; i < out.curves[t].size(); ++i) {
        if (i > 0) meta += ',';
        json_append_u64(meta, out.curves[t][i]);
      }
      return meta + "]}";
    };
    binding.on_hit_meta = [&](std::size_t t, const std::string& meta) {
      const std::optional<JsonValue> doc = json_parse(meta);
      const JsonValue* curve = doc ? doc->get("curve") : nullptr;
      if (curve == nullptr || !curve->is_array()) return;
      for (const JsonValue& v : curve->items())
        out.curves[t].push_back(static_cast<std::uint32_t>(v.as_u64()));
    };
  }
  out.recomputed_hits = binding.verify;
  out.agg = run_trials_stored(binding, &out.store, trials, spec.threads,
                              spec.seed, trial, mspec);
  return out;
}

std::string trial_trace_path(const std::string& base, std::size_t trial,
                             std::size_t trials) {
  if (trials == 1) return base;
  const std::string tag = ".t" + std::to_string(trial);
  const auto dot = base.find_last_of('.');
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos)
    return base + tag;
  return base.substr(0, dot) + tag + base.substr(dot);
}

SpreadEnvelope spread_envelope(
    const std::vector<std::vector<std::uint32_t>>& curves) {
  SpreadEnvelope env;
  env.trials = curves.size();
  std::size_t horizon = 0;
  for (const auto& curve : curves) horizon = std::max(horizon, curve.size());
  env.min.assign(horizon, ~std::uint64_t{0});
  env.max.assign(horizon, 0);
  env.sum.assign(horizon, 0);
  for (const auto& curve : curves) {
    for (std::size_t r = 0; r < horizon; ++r) {
      // A curve lost from a damaged record counts as 0.
      const std::uint64_t c =
          curve.empty() ? 0 : (r < curve.size() ? curve[r] : curve.back());
      env.min[r] = std::min(env.min[r], c);
      env.max[r] = std::max(env.max[r], c);
      env.sum[r] += c;
    }
  }
  return env;
}

void write_text_file(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  const bool ok = std::fputs(body.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !ok)
    throw std::runtime_error("cannot write " + path);
}

}  // namespace latgossip
