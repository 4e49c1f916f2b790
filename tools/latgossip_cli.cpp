// latgossip — command-line front end for the library.
//
//   latgossip gen --family=<name> [family params] --out=FILE [latency opts]
//   latgossip analyze --in=FILE [--sweep-iters=N]
//   latgossip run --in=FILE --proto=<pushpull|flooding|eid|tk|unified>
//                 [--source=0] [--seed=1] [--trials=N] [--threads=T]
//                 [--rumor-rep=<dense|sparse|auto>]
//                 [--dynamics=SPEC]
//                 [--trace=FILE[.json]] [--manifest=FILE.jsonl]
//                 [--curve-out=FILE.csv]
//                 [--store=DIR [--store-verify]]
//   latgossip game --m=N [--p=0.1] --strategy=<adaptive|systematic|random>
//   latgossip serve --store=DIR --socket=PATH [--threads=T]
//                   [--max-requests=N] [--quiet]
//   latgossip query --socket=PATH (--req='{"op":…}' | --op=<name>)
//
// --store=DIR: content-addressed result cache (store/store.h). Each
// trial's key is the canonical digest of (protocol, graph content,
// source, max_rounds, derived trial seed); cells already in the store
// are answered without simulating, the rest are computed and inserted —
// re-running a sweep only pays for cells it has never seen. Implies
// recording (fingerprints must land in the records); incompatible with
// --trace/--curve-out, whose outputs cannot be replayed from a cache
// hit. --store-verify recomputes every hit and fails loudly unless the
// result is bit-identical to the cached record — the tripwire for
// engine changes that forgot to bump kStoreModelVersion.
//
// serve/query: daemon + client for the same store over a Unix socket
// (length-prefixed JSON frames; ops ping/stats/completion_time/
// spread_curve/sweep/shutdown — see store/server.h and DESIGN.md §5j).
// `query --op=ping` is shorthand for --req='{"op":"ping"}'; anything
// with arguments goes through --req. The response JSON prints on
// stdout; exit 0 iff the server answered {"ok":true,…}.
//
// run observability: --trace writes the event stream (Chrome trace JSON
// when the name ends in .json, activation CSV otherwise; with trials>1
// one file per trial, ".t<k>" before the extension). --manifest appends
// one JSONL run record per trial (build info, config, SimResult,
// fingerprint, metrics). --curve-out (pushpull only) writes the
// per-round informed-count spread across trials as round,min,mean,max.
// --rumor-rep picks the rumor-set representation for rumor-carrying
// protocols (currently flooding): dense Bitset, sorted-vector sparse,
// or auto (dense below 65536 nodes, sparse at or above — see
// util/rumor_set.h kDenseNodeThreshold and DESIGN.md §5i). Both
// representations are observationally identical; the choice only
// moves memory/time. The resolved name is echoed and recorded in the
// manifest protocol field as e.g. "flooding/sparse".
//
// --dynamics=SPEC drives the run under a dynamic-topology scenario
// (sim/dynamics.h): comma-separated key=value pairs among
// drift=STEP[,drift-bound=B] (bounded multiplicative latency walk,
// x1024 fixed point), churn=P[,churn-window=W,churn-absence=A,
// churn-mode=retain|reset|mixed] (node leave/rejoin; the source is
// always spared), adv=SLOW (adversary slows frontier-crossing edges by
// SLOW/1024), seed=S. Only single-phase protocols (pushpull, flooding)
// accept it — composite protocols own their SimOptions. With --store,
// the scenario's exact canonical form is part of every cell key.
// Runs report the node-age freshness of the final state: per informed
// node, rounds since it last gained a rumor ("node age max/mean",
// recorded in manifests as node_age_* metrics).
//
// Families: clique, cycle, path, star, grid (--rows, --cols), er (--p),
// regular (--d), ws (--k --beta), ba (--attach), ring_cliques
// (--cliques --size --bridge), dumbbell (--size --bridge), thm8
// (--alpha --ell), plus the streaming two-pass CSR builders for
// million-node graphs: ring, torus (--rows --cols), and --streaming
// routing er/regular/ba through make_*_streaming (explicit --seed, no
// intermediate edge list). Latency options: --lat-uniform=L |
// --lat-range=LO,HI | --lat-twolevel=FAST,SLOW,PFAST.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "latgossip.h"

using namespace latgossip;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: latgossip <gen|analyze|run|game|serve|query> "
               "[--flags]\n"
               "see the header of tools/latgossip_cli.cpp for details\n");
  return 2;
}

void apply_latency_flags(WeightedGraph& g, const Args& args, Rng& rng) {
  if (args.has("lat-uniform")) {
    assign_uniform_latency(g, args.get_int("lat-uniform", 1));
  } else if (args.has("lat-range")) {
    const std::string spec = args.get("lat-range", "1,1");
    const auto comma = spec.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument("--lat-range wants LO,HI");
    assign_random_uniform_latency(
        g, std::stoll(spec.substr(0, comma)),
        std::stoll(spec.substr(comma + 1)), rng);
  } else if (args.has("lat-twolevel")) {
    const std::string spec = args.get("lat-twolevel", "1,10,0.5");
    const auto c1 = spec.find(',');
    const auto c2 = spec.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
      throw std::invalid_argument("--lat-twolevel wants FAST,SLOW,PFAST");
    assign_two_level_latency(g, std::stoll(spec.substr(0, c1)),
                             std::stoll(spec.substr(c1 + 1, c2 - c1 - 1)),
                             std::stod(spec.substr(c2 + 1)), rng);
  }
}

WeightedGraph generate(const Args& args, Rng& rng) {
  const std::string family = args.get("family", "er");
  const auto n = static_cast<std::size_t>(args.get_int("n", 32));
  // --streaming routes er/regular/ba through the two-pass CSR builders
  // (same distributions, explicit seed, no intermediate edge list) —
  // the path that makes n = 10^6 fit in laptop RAM.
  const bool streaming = args.get_bool("streaming");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (family == "clique") return make_clique(n);
  if (family == "cycle") return make_cycle(n);
  if (family == "path") return make_path(n);
  if (family == "star") return make_star(n);
  if (family == "ring") return make_ring_streaming(n);
  if (family == "torus")
    return make_torus_streaming(
        static_cast<std::size_t>(args.get_int("rows", 4)),
        static_cast<std::size_t>(args.get_int("cols", 4)));
  if (family == "grid")
    return make_grid(static_cast<std::size_t>(args.get_int("rows", 4)),
                     static_cast<std::size_t>(args.get_int("cols", 4)));
  if (family == "er") {
    const double p = args.get_double("p", 0.2);
    if (streaming) return make_erdos_renyi_streaming(n, p, seed);
    return make_erdos_renyi(n, p, rng);
  }
  if (family == "regular") {
    const auto d = static_cast<std::size_t>(args.get_int("d", 4));
    if (streaming) return make_random_regular_streaming(n, d, seed);
    return make_random_regular(n, d, rng);
  }
  if (family == "ws")
    return make_watts_strogatz(
        n, static_cast<std::size_t>(args.get_int("k", 2)),
        args.get_double("beta", 0.1), rng);
  if (family == "ba") {
    const auto attach = static_cast<std::size_t>(args.get_int("attach", 2));
    if (streaming) return make_preferential_attachment_streaming(n, attach, seed);
    return make_barabasi_albert(n, attach, rng);
  }
  if (family == "ring_cliques")
    return make_ring_of_cliques(
        static_cast<std::size_t>(args.get_int("cliques", 4)),
        static_cast<std::size_t>(args.get_int("size", 4)),
        args.get_int("bridge", 1));
  if (family == "dumbbell")
    return make_dumbbell(static_cast<std::size_t>(args.get_int("size", 5)),
                         1, args.get_int("bridge", 1));
  if (family == "thm8")
    return make_theorem8_network(n, args.get_double("alpha", 0.25),
                                 args.get_int("ell", 8), rng)
        .graph;
  throw std::invalid_argument("unknown family '" + family + "'");
}

int cmd_gen(const Args& args) {
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  WeightedGraph g = generate(args, rng);
  apply_latency_flags(g, args, rng);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fputs(graph_to_string(g).c_str(), stdout);
  } else {
    save_graph(out, g);
    std::printf("wrote %zu nodes / %zu edges to %s\n", g.num_nodes(),
                g.num_edges(), out.c_str());
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const WeightedGraph g = load_graph(in);
  std::printf("nodes          %zu\n", g.num_nodes());
  std::printf("edges          %zu\n", g.num_edges());
  std::printf("max degree     %zu\n", g.max_degree());
  std::printf("latency range  [%lld, %lld]\n",
              static_cast<long long>(g.min_latency()),
              static_cast<long long>(g.max_latency()));
  std::printf("connected      %s\n", g.is_connected() ? "yes" : "NO");
  if (!g.is_connected()) return 0;
  std::printf("weighted D     %lld\n",
              static_cast<long long>(weighted_diameter(g)));
  std::printf("hop D          %lld\n",
              static_cast<long long>(hop_diameter(g)));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  bool exact = false;
  const auto wc = weighted_conductance_auto(
      g, 22, static_cast<int>(args.get_int("sweep-iters", 300)), rng,
      &exact);
  std::printf("phi*           %.6f (%s)\n", wc.phi_star,
              exact ? "exact" : "sweep upper bound");
  std::printf("ell*           %lld\n", static_cast<long long>(wc.ell_star));
  std::printf("phi_ell profile:");
  for (std::size_t i = 0; i < wc.levels.size(); ++i)
    std::printf(" (%lld: %.4f)", static_cast<long long>(wc.levels[i]),
                wc.phi[i]);
  std::printf("\n");
  return 0;
}

void write_file_or_throw(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::fputs(body.c_str(), f);
  std::fclose(f);
}

int cmd_run(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const WeightedGraph g = load_graph(in);
  const std::size_t n = g.num_nodes();
  const std::string proto_name = args.get("proto", "pushpull");
  const auto source = static_cast<NodeId>(args.get_int("source", 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 1));
  // 0 = hardware concurrency; only consulted when trials > 1.
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const Round max_rounds = args.get_int("max-rounds", 5'000'000);
  // Rumor-set representation for rumor-carrying protocols; kAuto is
  // resolved against the loaded graph's node count up front so the
  // echoed/manifested name is the concrete choice.
  const RumorRep rumor_rep =
      resolve_rumor_rep(parse_rumor_rep(args.get("rumor-rep", "auto")), n);
  Rng rng(seed);

  const std::string trace_path = args.get("trace", "");
  const std::string manifest_path = args.get("manifest", "");
  const std::string curve_path = args.get("curve-out", "");
  const std::string store_dir = args.get("store", "");
  const bool store_verify = args.get_bool("store-verify");
  if (!curve_path.empty() && proto_name != "pushpull")
    throw std::invalid_argument(
        "--curve-out needs per-node inform rounds; only --proto=pushpull "
        "exposes them");
  if (store_verify && store_dir.empty())
    throw std::invalid_argument("--store-verify needs --store=DIR");
  // Dynamic scenario: parsed once, validated against the loaded graph;
  // one DynamicPlan per trial is constructed inside run_single (the
  // schedule itself is a deterministic function of the spec, so every
  // trial replays the same scenario with its own protocol randomness).
  const std::string dynamics_str = args.get("dynamics", "");
  DynamicSpec dynamics_spec;
  if (!dynamics_str.empty()) {
    if (proto_name != "pushpull" && proto_name != "flooding")
      throw std::invalid_argument(
          "--dynamics only applies to --proto=pushpull|flooding; composite "
          "protocols own their SimOptions");
    dynamics_spec = parse_dynamics_spec(dynamics_str, n, source);
  }
  const bool dynamics_on = dynamics_spec.any();
  // A store hit skips the trial body, so exports that only the live
  // body can produce are incompatible with caching.
  if (!store_dir.empty() && (!trace_path.empty() || !curve_path.empty()))
    throw std::invalid_argument(
        "--store cannot replay --trace/--curve-out from cache hits; drop "
        "those flags or the store");
  // Recording (events + metrics) is enabled per trial whenever an
  // export that needs it was requested. A store implies it: records
  // carry fingerprints, the observable --store-verify compares by.
  const bool recording =
      !trace_path.empty() || !manifest_path.empty() || !store_dir.empty();

  // A trace ending in .json is exported as Chrome trace-event JSON
  // (open in Perfetto / chrome://tracing); anything else as the
  // activation CSV. With trials > 1, each trial writes its own file
  // with ".t<k>" spliced in before the extension.
  auto trial_trace_path = [&](std::size_t t) -> std::string {
    if (trials == 1) return trace_path;
    const std::string tag = ".t" + std::to_string(t);
    const auto dot = trace_path.find_last_of('.');
    if (dot == std::string::npos ||
        trace_path.find('/', dot) != std::string::npos)
      return trace_path + tag;
    return trace_path.substr(0, dot) + tag + trace_path.substr(dot);
  };
  const bool trace_json =
      trace_path.size() >= 5 &&
      trace_path.compare(trace_path.size() - 5, 5, ".json") == 0;

  // Per-trial side channels, pre-sized so worker threads write disjoint
  // slots (same pattern as run_trials itself).
  std::vector<std::string> metrics_snapshots(trials);
  std::vector<std::size_t> trace_events(trials, 0);
  std::vector<std::vector<Round>> inform_rounds(
      curve_path.empty() ? 0 : trials);
  // Node-age freshness of the final protocol state (valid only for
  // protocols exposing last_gain_round — pushpull and flooding).
  std::vector<FreshnessStats> freshness(trials);

  // One trial with a private RNG; .completed carries protocol-level
  // success so the multi-trial aggregate can count completions.
  const bool known_latencies = args.get_bool("known-latencies");
  auto run_single = [&](std::size_t trial, Rng trial_rng,
                        TrialWorkspace& ws) -> SimResult {
    // One recorder per worker thread, reused across that thread's
    // trials: clear() keeps the event-log storage, so only the first
    // trial per thread pays the allocation (the recorder's designed
    // steady state). Trials never share a recorder concurrently. The
    // workspace likewise recycles the engine calendar queue per worker.
    thread_local EventRecorder recorder;
    recorder.clear();
    MetricsRegistry metrics;
    ObsContext obs{&recorder, &metrics};
    ObsContext* obs_ptr = recording ? &obs : nullptr;
    SimOptions opts;
    opts.max_rounds = max_rounds;
    opts.workspace = &ws;
    if (recording) opts.recorder = &recorder;
    std::optional<DynamicPlan> dyn_plan;
    if (dynamics_on) {
      dyn_plan.emplace(n, g.num_edges(), dynamics_spec);
      opts.dynamics = &*dyn_plan;
    }
    SimResult result;
    if (proto_name == "pushpull") {
      NetworkView view(g, false);
      PushPullBroadcast proto(view, source, trial_rng);
      result = run_gossip(g, proto, opts);
      freshness[trial] = freshness_of(proto, n, result.rounds);
      if (!curve_path.empty()) {
        inform_rounds[trial].resize(n);
        for (NodeId v = 0; v < n; ++v)
          inform_rounds[trial][v] = proto.inform_round(v);
      }
    } else if (proto_name == "flooding") {
      NetworkView view(g, false);
      result = with_rumor_rep(rumor_rep, n, [&]<RumorSetRep R>() {
        BasicRoundRobinFlooding<R> proto(view, GossipGoal::kAllToAll, source,
                                         own_id_rumor_sets<R>(n));
        const SimResult rr = run_gossip(g, proto, opts);
        freshness[trial] = freshness_of(proto, n, rr.rounds);
        return rr;
      });
    } else if (proto_name == "eid") {
      const GeneralEidOutcome out =
          run_general_eid(g, 0, trial_rng, 1, obs_ptr, &ws);
      result = out.sim;
      result.completed = out.success;
    } else if (proto_name == "tk") {
      const PathDiscoveryOutcome out = run_path_discovery(g, obs_ptr);
      result = out.sim;
      result.completed = out.success;
    } else if (proto_name == "unified") {
      UnifiedOptions uopts;
      uopts.latencies_known = known_latencies;
      uopts.obs = obs_ptr;
      const UnifiedOutcome out = run_unified(g, uopts, trial_rng);
      result.rounds = out.unified_rounds;
      result.completed = out.completed;
      if (trials == 1)
        std::printf("winner         %s\n",
                    out.winner == UnifiedWinner::kPushPull ? "push-pull"
                                                           : "spanner");
    } else {
      throw std::invalid_argument("unknown protocol '" + proto_name + "'");
    }
    if (recording) {
      result.fingerprint = recorder.fingerprint();
      record_sim_result(metrics, result);
      record_event_histograms(metrics, recorder);
      record_freshness(metrics, freshness[trial]);
      metrics_snapshots[trial] = metrics_json(metrics);
      if (!trace_path.empty()) {
        trace_events[trial] = recorder.events().size();
        write_file_or_throw(trial_trace_path(trial),
                            trace_json ? to_chrome_trace_json(recorder)
                                       : activations_to_csv(recorder));
      }
    }
    return result;
  };

  // Only flooding carries rumor sets today; other protocols ignore the
  // representation flag entirely, so tagging them would be noise.
  const bool rep_applies = proto_name == "flooding";
  const std::string rep_name{rumor_rep_name(rumor_rep)};

  RunInfo info;
  info.tool = "latgossip run";
  info.protocol = rep_applies ? proto_name + "/" + rep_name : proto_name;
  info.graph_source = in;
  info.nodes = n;
  info.edges = g.num_edges();
  info.seed = seed;
  info.threads = threads;

  // Informed-count spread curve: counts of informed nodes per round,
  // min/mean/max across trials ("round,min,mean,max" CSV).
  auto write_curve = [&]() {
    if (curve_path.empty()) return;
    Round horizon = 0;
    for (const auto& rounds_v : inform_rounds)
      for (Round r : rounds_v) horizon = std::max(horizon, r);
    std::string body = "round,min,mean,max\n";
    std::vector<std::size_t> counts(trials);
    for (Round r = 0; r <= horizon; ++r) {
      for (std::size_t t = 0; t < trials; ++t) {
        std::size_t c = 0;
        for (Round ir : inform_rounds[t])
          if (ir >= 0 && ir <= r) ++c;
        counts[t] = c;
      }
      std::size_t lo = counts[0], hi = counts[0], sum = 0;
      for (std::size_t c : counts) {
        lo = std::min(lo, c);
        hi = std::max(hi, c);
        sum += c;
      }
      char line[96];
      std::snprintf(line, sizeof line, "%lld,%zu,%.2f,%zu\n",
                    static_cast<long long>(r), lo,
                    static_cast<double>(sum) / static_cast<double>(trials),
                    hi);
      body += line;
    }
    write_file_or_throw(curve_path, body);
    std::printf("curve          %s (%lld rounds)\n", curve_path.c_str(),
                static_cast<long long>(horizon) + 1);
  };

  // Store runs always take the batch path (even --trials=1): per-trial
  // keys come from the same trial_seed() derivation either way, so a
  // single-trial probe and a later sweep share cache entries.
  if (trials > 1 || !store_dir.empty()) {
    ManifestSpec manifest;
    if (!manifest_path.empty()) {
      manifest.path = manifest_path;
      manifest.info = info;
      manifest.metrics_json_snapshot = [&](std::size_t t) {
        return metrics_snapshots[t];
      };
    }
    const ManifestSpec* mspec = manifest_path.empty() ? nullptr : &manifest;
    std::optional<ExperimentStore> store;
    StoredBatchStats store_stats;
    TrialAggregate agg;
    if (!store_dir.empty()) {
      store.emplace(store_dir);
      StoreBinding binding;
      binding.store = &*store;
      binding.verify = store_verify;
      binding.cell.protocol = info.protocol;
      binding.cell.graph = graph_digest(g);
      binding.cell.source = source;
      binding.cell.max_rounds = max_rounds;
      binding.cell.faults = canonical_dynamics(dynamics_spec);
      agg = run_trials_stored(binding, &store_stats, trials, threads, seed,
                              run_single, mspec);
    } else {
      agg = run_trials(trials, threads, seed, run_single, mspec);
    }
    std::printf("protocol       %s\n", proto_name.c_str());
    if (rep_applies)
      std::printf("rumor rep      %s\n", rep_name.c_str());
    std::printf("trials         %zu (threads %zu%s)\n", trials, threads,
                threads == 0 ? " = hardware" : "");
    std::printf("rounds mean    %.2f\n", agg.rounds.mean());
    std::printf("rounds stddev  %.2f\n", agg.rounds.stddev());
    std::printf("rounds range   [%.0f, %.0f]\n", agg.rounds.min(),
                agg.rounds.max());
    std::printf("complete       %zu/%zu\n", agg.num_completed, trials);
    std::printf("exchanges mean %.1f\n", agg.activations.mean());
    std::printf("payload bits   %.1f (mean)\n", agg.payload_bits.mean());
    if (dynamics_on)
      std::printf("dynamics       %s\n",
                  describe_dynamics(dynamics_spec).c_str());
    {
      // Freshness aggregate across the trials that produced it (every
      // trial for pushpull/flooding, none otherwise).
      std::size_t valid = 0;
      double max_sum = 0.0, mean_sum = 0.0;
      for (const FreshnessStats& f : freshness) {
        if (!f.valid) continue;
        ++valid;
        max_sum += static_cast<double>(f.max_age);
        mean_sum += f.mean_age;
      }
      if (valid > 0) {
        std::printf("node age max   %.1f (mean over %zu trials)\n",
                    max_sum / static_cast<double>(valid), valid);
        std::printf("node age mean  %.2f\n",
                    mean_sum / static_cast<double>(valid));
      }
    }
    if (recording)
      std::printf("fingerprint    0x%016llx\n",
                  static_cast<unsigned long long>(agg.fingerprint));
    if (!trace_path.empty())
      std::printf("traces         %s .. %s\n", trial_trace_path(0).c_str(),
                  trial_trace_path(trials - 1).c_str());
    if (!manifest_path.empty())
      std::printf("manifest       %s (%zu records)\n", manifest_path.c_str(),
                  trials);
    if (store) {
      // hits + misses == trials; a repeated sweep is all hits (the
      // resumable-sweep observable EXPERIMENTS.md and CI assert on).
      std::printf("store          %s (%zu records)\n", store_dir.c_str(),
                  store->size());
      std::printf("store hits     %zu%s\n", store_stats.hits,
                  store_verify ? " (recomputed + verified)" : "");
      std::printf("store misses   %zu (computed + inserted)\n",
                  store_stats.misses);
    }
    write_curve();
    return 0;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const SimResult result = run_single(0, rng, trial_workspace());
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const bool complete = result.completed;

  std::printf("protocol       %s\n", proto_name.c_str());
  if (rep_applies)
    std::printf("rumor rep      %s\n", rep_name.c_str());
  std::printf("rounds         %lld\n", static_cast<long long>(result.rounds));
  std::printf("complete       %s\n", complete ? "yes" : "NO");
  std::printf("exchanges      %zu\n", result.activations);
  std::printf("payload bits   %zu\n", result.payload_bits);
  if (dynamics_on)
    std::printf("dynamics       %s\n", describe_dynamics(dynamics_spec).c_str());
  if (freshness[0].valid) {
    std::printf("node age max   %lld\n",
                static_cast<long long>(freshness[0].max_age));
    std::printf("node age mean  %.2f\n", freshness[0].mean_age);
  }
  if (recording)
    std::printf("fingerprint    0x%016llx\n",
                static_cast<unsigned long long>(result.fingerprint));
  if (!trace_path.empty())
    std::printf("trace          %s (%zu events)\n", trace_path.c_str(),
                trace_events[0]);
  if (!manifest_path.empty()) {
    // The single-trial path bypasses run_trials, so stamp the effective
    // parallelism (always 1 here) the way run_trials would.
    info.threads_effective = 1;
    if (const char* env = std::getenv("LATGOSSIP_THREADS"))
      info.threads_env = env;
    if (!append_jsonl(manifest_path,
                      manifest_record(info, 0, seed, result, wall_ms,
                                      metrics_snapshots[0])))
      throw std::runtime_error("cannot append to " + manifest_path);
    std::printf("manifest       %s (1 record)\n", manifest_path.c_str());
  }
  write_curve();
  return 0;
}

int cmd_game(const Args& args) {
  const auto m = static_cast<std::size_t>(args.get_int("m", 64));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const TargetSet target =
      args.has("p") ? make_random_p_target(m, args.get_double("p", 0.1), rng)
                    : make_singleton_target(m, rng);
  GuessingGame game(m, target);
  const std::string which = args.get("strategy", "adaptive");
  PlayResult result;
  if (which == "adaptive") {
    AdaptiveCouponStrategy s(m);
    result = play_game(game, s, 1'000'000);
  } else if (which == "systematic") {
    SystematicSweepStrategy s(m);
    result = play_game(game, s, 1'000'000);
  } else if (which == "random") {
    RandomPerSideStrategy s(m, rng.fork(1));
    result = play_game(game, s, 1'000'000);
  } else {
    return usage();
  }
  std::printf("m              %zu\n", m);
  std::printf("initial |T|    %zu\n", game.initial_target_size());
  std::printf("strategy       %s\n", which.c_str());
  std::printf("rounds         %zu\n", result.rounds);
  std::printf("guesses        %zu\n", result.guesses);
  std::printf("solved         %s\n", result.solved ? "yes" : "NO");
  return 0;
}

int cmd_serve(const Args& args) {
  ServeOptions opts;
  opts.store_dir = args.get("store", "");
  opts.socket_path = args.get("socket", "");
  opts.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  opts.max_requests =
      static_cast<std::size_t>(args.get_int("max-requests", 0));
  opts.quiet = args.get_bool("quiet");
  if (opts.store_dir.empty() || opts.socket_path.empty()) return usage();
  return run_server(opts);
}

int cmd_query(const Args& args) {
  const std::string socket_path = args.get("socket", "");
  std::string request = args.get("req", "");
  if (request.empty()) {
    // --op shorthand only covers argument-free ops; anything with a
    // graph spec or cell list is real JSON and belongs in --req.
    const std::string op = args.get("op", "");
    if (op.empty()) return usage();
    request = "{\"op\":\"" + op + "\"}";
  }
  if (socket_path.empty()) return usage();
  const std::string response = query_server(socket_path, request);
  std::printf("%s\n", response.c_str());
  return response.compare(0, 10, "{\"ok\":true") == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "run") return cmd_run(args);
    if (command == "game") return cmd_game(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "query") return cmd_query(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Unknown subcommand: name the offender on stderr, then the one-line
  // usage; exit 2 like every other usage error (not the silent exit the
  // shell would read as success).
  std::fprintf(stderr, "latgossip: unknown subcommand '%s'\n",
               command.c_str());
  return usage();
}
