// latgossip — command-line front end for the library.
//
//   latgossip gen --family=<name> [family params] --out=FILE [latency opts]
//   latgossip analyze --in=FILE [--sweep-iters=N] [--seed=1]
//   latgossip run --in=FILE --proto=<pushpull|flooding|eid|tk|unified>
//                 [--source=0] [--seed=1] [--trials=N] [--threads=T]
//                 [--max-rounds=N] [--known-latencies] [--dynamics=SPEC]
//                 [--trace=FILE[.json]] [--manifest=FILE.jsonl]
//                 [--curve-out=FILE.csv]
//                 [--store=DIR [--store-verify]]
//   latgossip game --m=N [--p=0.1] [--seed=1]
//                  --strategy=<adaptive|systematic|random>
//   latgossip serve --store=DIR --socket=PATH [--threads=T]
//                   [--max-requests=N] [--quiet]
//   latgossip query --socket=PATH (--req='{"op":…}' | --op=<name>)
//
// Every subcommand rejects a flag it does not read ("unknown flag
// --trails"), so a typo is an error rather than a silent default.
//
// Every `run` is one RunSpec handed to execute() (store/run.h), as in
// `serve`; a single trial is a batch of one, seeded trial_seed(seed, 0)
// with or without a store. One trial prints its own counters, more the
// aggregate.
//
// --store=DIR: content-addressed result cache (store/store.h). Each
// trial's key is the canonical digest of (protocol, graph content,
// source, max_rounds, scenario, derived trial seed); cells already in
// the store are answered without simulating, the rest are computed and
// inserted — re-running a sweep only pays for cells it has never seen.
// Implies recording (fingerprints must land in the records).
// --store-verify recomputes every hit and fails loudly unless the
// result is bit-identical to the cached record — the tripwire for
// engine changes that forgot to bump kStoreModelVersion. --trace
// recomputes hits the same way (a hit has no event stream);
// --curve-out uses spread_curve's "curve" cells, whose hits replay.
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
// (--alpha --ell), ring (a cycle), torus (--rows --cols); sizes must be
// >= 0. --streaming selects a sampler, not a builder: er and regular use
// the seeded million-node samplers make_*_streaming, and ba draws its
// edges (not its latencies) from its own Rng(--seed). Latency options:
// --lat-uniform=L | --lat-range=LO,HI | --lat-twolevel=FAST,SLOW,PFAST.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

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

/// --threads as a worker count; 0 means one per hardware thread.
std::size_t thread_count(const Args& args) {
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0) throw std::invalid_argument("--threads must be >= 0");
  return static_cast<std::size_t>(threads);
}

/// `gen`'s flags as a GraphSpec, with gen's defaults.
GraphSpec gen_spec(const Args& args) {
  GraphSpec spec;
  spec.family = args.get("family", "er");
  spec.n = spec_size("n", args.get_int("n", 32));
  spec.rows = spec_size("rows", args.get_int("rows", 4));
  spec.cols = spec_size("cols", args.get_int("cols", 4));
  spec.p = args.get_double("p", 0.2);
  spec.d = spec_size("d", args.get_int("d", 4));
  spec.k = spec_size("k", args.get_int("k", 2));
  spec.beta = args.get_double("beta", 0.1);
  spec.attach = spec_size("attach", args.get_int("attach", 2));
  spec.cliques = spec_size("cliques", args.get_int("cliques", 4));
  spec.size = spec_size(
      "size", args.get_int("size", spec.family == "dumbbell" ? 5 : 4));
  spec.bridge = args.get_int("bridge", 1);
  spec.alpha = args.get_double("alpha", 0.25);
  spec.ell = args.get_int("ell", 8);
  // --streaming selects the seeded er/regular samplers, which reach
  // n = 10^6, and gives ba its own Rng.
  spec.streaming = args.get_bool("streaming");
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("lat-uniform")) {
    spec.latency = LatencyModel::kUniform;
    spec.lat_lo = args.get_int("lat-uniform", 1);
  } else if (args.has("lat-range")) {
    const std::string lat = args.get("lat-range", "1,1");
    const auto comma = lat.find(',');
    if (comma == std::string::npos)
      throw std::invalid_argument("--lat-range wants LO,HI");
    spec.latency = LatencyModel::kRange;
    spec.lat_lo = parse_int_flag("lat-range", lat.substr(0, comma));
    spec.lat_hi = parse_int_flag("lat-range", lat.substr(comma + 1));
  } else if (args.has("lat-twolevel")) {
    const std::string lat = args.get("lat-twolevel", "1,10,0.5");
    const auto c1 = lat.find(',');
    const auto c2 = lat.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
      throw std::invalid_argument("--lat-twolevel wants FAST,SLOW,PFAST");
    spec.latency = LatencyModel::kTwoLevel;
    spec.lat_lo = parse_int_flag("lat-twolevel", lat.substr(0, c1));
    spec.lat_hi =
        parse_int_flag("lat-twolevel", lat.substr(c1 + 1, c2 - c1 - 1));
    spec.lat_p_fast = parse_double_flag("lat-twolevel", lat.substr(c2 + 1));
  }
  return spec;
}

int cmd_gen(const Args& args) {
  args.allow_only({"family", "n", "rows", "cols", "p", "d", "k", "beta",
                   "attach", "cliques", "size", "bridge", "alpha", "ell",
                   "streaming", "seed", "lat-uniform", "lat-range",
                   "lat-twolevel", "out"});
  const WeightedGraph g = generate_graph(gen_spec(args));
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
  args.allow_only({"in", "seed", "sweep-iters"});
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

int cmd_run(const Args& args) {
  args.allow_only({"in", "proto", "source", "seed", "trials", "threads",
                   "max-rounds", "known-latencies", "dynamics", "trace",
                   "manifest", "curve-out", "store", "store-verify"});
  const std::string in = args.get("in", "");
  if (in.empty()) return usage();
  const WeightedGraph g = load_graph(in);
  const std::size_t n = g.num_nodes();
  RunSpec spec;
  spec.protocol = args.get("proto", "pushpull");
  spec.source = args.get_int("source", 0);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.trials = args.get_int("trials", 1);
  spec.threads = thread_count(args);
  spec.max_rounds = args.get_int("max-rounds", 5'000'000);
  spec.known_latencies = args.get_bool("known-latencies");
  // Validate before the scenario parser narrows the source to a NodeId;
  // execute() re-checks the completed spec.
  validate_run(spec, n);
  const std::string dynamics = args.get("dynamics", "");
  if (!dynamics.empty())
    spec.dynamics =
        parse_dynamics_spec(dynamics, n, static_cast<NodeId>(spec.source));

  RunSinks sinks;
  sinks.trace_path = args.get("trace", "");
  sinks.manifest_path = args.get("manifest", "");
  sinks.manifest_info.tool = "latgossip run";
  sinks.manifest_info.graph_source = in;
  const std::string curve_path = args.get("curve-out", "");
  sinks.curves = !curve_path.empty();
  sinks.freshness = true;
  const std::string store_dir = args.get("store", "");
  sinks.store_verify = args.get_bool("store-verify");
  if (sinks.store_verify && store_dir.empty())
    throw std::invalid_argument("--store-verify needs --store=DIR");
  std::optional<ExperimentStore> store;
  if (!store_dir.empty()) sinks.store = &store.emplace(store_dir);

  const RunOutcome out = execute(spec, g, sinks);
  const TrialAggregate& agg = out.agg;
  const std::size_t trials = agg.trials.size();
  const bool one = trials == 1;
  const SimResult& first = agg.trials[0];

  if (one && !out.winners.empty() && !out.winners[0].empty())
    std::printf("winner         %s\n", out.winners[0].c_str());
  std::printf("protocol       %s\n", spec.protocol.c_str());
  if (one) {
    std::printf("rounds         %lld\n", static_cast<long long>(first.rounds));
    std::printf("complete       %s\n", first.completed ? "yes" : "NO");
    std::printf("exchanges      %zu\n", first.activations);
    std::printf("payload bits   %zu\n", first.payload_bits);
  } else {
    std::printf("trials         %zu (threads %zu%s)\n", trials, spec.threads,
                spec.threads == 0 ? " = hardware" : "");
    std::printf("rounds mean    %.2f\n", agg.rounds.mean());
    std::printf("rounds stddev  %.2f\n", agg.rounds.stddev());
    std::printf("rounds range   [%.0f, %.0f]\n", agg.rounds.min(),
                agg.rounds.max());
    std::printf("complete       %zu/%zu\n", agg.num_completed, trials);
    std::printf("exchanges mean %.1f\n", agg.activations.mean());
    std::printf("payload bits   %.1f (mean)\n", agg.payload_bits.mean());
  }
  if (spec.dynamics.any())
    std::printf("dynamics       %s\n",
                describe_dynamics(spec.dynamics).c_str());
  // Node-age freshness over the trials that produced it: every computed
  // pushpull/flooding trial, no store hit.
  std::size_t fresh = 0;
  double max_sum = 0.0, mean_sum = 0.0;
  for (const FreshnessStats& f : out.freshness) {
    if (!f.valid) continue;
    ++fresh;
    max_sum += static_cast<double>(f.max_age);
    mean_sum += f.mean_age;
  }
  if (fresh > 0 && one) {
    std::printf("node age max   %lld\n",
                static_cast<long long>(out.freshness[0].max_age));
    std::printf("node age mean  %.2f\n", out.freshness[0].mean_age);
  } else if (fresh > 0) {
    std::printf("node age max   %.1f (mean over %zu trials)\n",
                max_sum / static_cast<double>(fresh), fresh);
    std::printf("node age mean  %.2f\n", mean_sum / static_cast<double>(fresh));
  }
  if (out.recorded)
    std::printf("fingerprint    0x%016llx\n",
                static_cast<unsigned long long>(one ? first.fingerprint
                                                    : agg.fingerprint));
  if (!sinks.trace_path.empty() && one)
    std::printf("trace          %s (%zu events)\n", sinks.trace_path.c_str(),
                out.trace_events[0]);
  else if (!sinks.trace_path.empty())
    std::printf("traces         %s .. %s\n",
                trial_trace_path(sinks.trace_path, 0, trials).c_str(),
                trial_trace_path(sinks.trace_path, trials - 1, trials).c_str());
  if (!sinks.manifest_path.empty())
    std::printf("manifest       %s (%zu record%s)\n",
                sinks.manifest_path.c_str(), trials, one ? "" : "s");
  if (store) {
    // hits + misses == trials; a repeated sweep is all hits (the
    // resumable-sweep observable EXPERIMENTS.md and CI assert on).
    std::printf("store          %s (%zu records)\n", store_dir.c_str(),
                store->size());
    std::printf("store hits     %zu%s\n", out.store.hits,
                out.recomputed_hits ? " (recomputed + verified)" : "");
    std::printf("store misses   %zu (computed + inserted)\n",
                out.store.misses);
  }
  if (!curve_path.empty()) {
    const SpreadEnvelope env = spread_envelope(out.curves);
    std::string csv = "round,min,mean,max\n";
    for (std::size_t r = 0; r < env.rounds(); ++r) {
      char line[96];
      std::snprintf(line, sizeof line, "%zu,%llu,%.2f,%llu\n", r,
                    static_cast<unsigned long long>(env.min[r]), env.mean(r),
                    static_cast<unsigned long long>(env.max[r]));
      csv += line;
    }
    write_text_file(curve_path, csv);
    std::printf("curve          %s (%zu rounds)\n", curve_path.c_str(),
                env.rounds());
  }
  return 0;
}

int cmd_game(const Args& args) {
  args.allow_only({"m", "seed", "p", "strategy"});
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
  args.allow_only({"store", "socket", "threads", "max-requests", "quiet"});
  ServeOptions opts;
  opts.store_dir = args.get("store", "");
  opts.socket_path = args.get("socket", "");
  opts.threads = thread_count(args);
  opts.max_requests =
      static_cast<std::size_t>(args.get_int("max-requests", 0));
  opts.quiet = args.get_bool("quiet");
  if (opts.store_dir.empty() || opts.socket_path.empty()) return usage();
  return run_server(opts);
}

int cmd_query(const Args& args) {
  args.allow_only({"socket", "req", "op"});
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
