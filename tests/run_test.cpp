// Tests for the shared run path (store/run.h): the graph-family table
// pinned against digests of the graphs `serve` and `gen` built before
// GraphSpec existed, the one RunSpec validation, single trials as a
// batch of one, cache sharing between serve cells and execute()
// batches, spread curves replayed from the store, the store keys and
// manifest protocol name of flooding cells, composites that agree
// across thread counts and with their own manifests, and the one JSON
// writer for the SimResult object manifests and store records share.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/push_pull.h"
#include "graph/io.h"
#include "obs/export.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "store/json.h"
#include "store/key.h"
#include "store/run.h"
#include "store/server.h"
#include "store/store.h"

namespace latgossip {
namespace {

std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("latgossip_run_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

GraphSpec serve_spec(const std::string& json) {
  const std::optional<JsonValue> doc = json_parse(json);
  EXPECT_TRUE(doc) << json;
  return parse_graph_spec(*doc);
}

// graph_digest of the graphs the pre-GraphSpec builders made: serve's
// build_graph() for the "graph" objects below, and `latgossip gen` with
// the equivalent flags, written to a file and loaded back. Both paths
// agreed on every spec, so one constant pins both.
struct GoldenGraph {
  const char* serve_json;
  GraphSpec gen;  // what gen's flags parse into
  std::uint64_t digest;
};

GraphSpec gen_like(const char* family, std::size_t n, std::uint64_t seed) {
  GraphSpec s;
  s.family = family;
  s.n = n;
  s.seed = seed;
  return s;
}

std::vector<GoldenGraph> golden_graphs() {
  std::vector<GoldenGraph> out;
  // --family=er --n=64 --p=0.1 --seed=2 --lat-range=1,8 (serve_smoke's cell)
  GraphSpec er = gen_like("er", 64, 2);
  er.p = 0.1;
  er.latency = LatencyModel::kRange;
  er.lat_lo = 1;
  er.lat_hi = 8;
  out.push_back({R"({"family":"er","n":64,"p":0.1,"seed":2,"lat":"range",)"
                 R"("lat_lo":1,"lat_hi":8})",
                 er, 0xdc244023a842b6ceULL});
  // --family=cycle --n=12
  out.push_back({R"({"family":"cycle","n":12})", gen_like("cycle", 12, 1),
                 0x0d1ae978725f5789ULL});
  // --family=star --n=9
  out.push_back({R"({"family":"star","n":9})", gen_like("star", 9, 1),
                 0x8d33b73ea7f0c091ULL});
  // --family=torus --rows=5 --cols=6 --lat-uniform=3
  GraphSpec torus = gen_like("torus", 32, 1);
  torus.rows = 5;
  torus.cols = 6;
  torus.latency = LatencyModel::kUniform;
  torus.lat_lo = 3;
  out.push_back({R"({"family":"torus","rows":5,"cols":6,"lat":"uniform",)"
                 R"("l":3})",
                 torus, 0x459a410f585ea4f7ULL});
  // --family=regular --n=40 --d=4 --seed=7 --lat-range=2,5
  GraphSpec regular = gen_like("regular", 40, 7);
  regular.d = 4;
  regular.latency = LatencyModel::kRange;
  regular.lat_lo = 2;
  regular.lat_hi = 5;
  out.push_back({R"({"family":"regular","n":40,"d":4,"seed":7,)"
                 R"("lat":"range","lat_lo":2,"lat_hi":5})",
                 regular, 0xec9f10e263940f4bULL});
  // --family=ba --n=50 --attach=3 --seed=11
  GraphSpec ba = gen_like("ba", 50, 11);
  ba.attach = 3;
  out.push_back({R"({"family":"ba","n":50,"attach":3,"seed":11})", ba,
                 0xfa0046bf4733de57ULL});
  return out;
}

TEST(GraphSpecGolden, ServeGraphsAreBitIdentical) {
  for (const GoldenGraph& golden : golden_graphs()) {
    const WeightedGraph g = generate_graph(serve_spec(golden.serve_json));
    EXPECT_EQ(graph_digest(g), golden.digest) << golden.serve_json;
  }
}

TEST(GraphSpecGolden, GenFilesLoadBackBitIdentical) {
  const std::string dir = scratch_dir("gen");
  std::filesystem::create_directories(dir);
  for (const GoldenGraph& golden : golden_graphs()) {
    const std::string path = dir + "/g.graph";
    save_graph(path, generate_graph(golden.gen));
    EXPECT_EQ(graph_digest(load_graph(path)), golden.digest)
        << golden.serve_json;
  }
  std::filesystem::remove_all(dir);
}

// The families only `gen` reaches, and the seeded streaming samplers,
// pinned by digest. The ba row catches latencies drawn from an Rng the
// generator has already advanced: streaming ba owns its own Rng, so the
// spec's Rng is still fresh when the latency model draws from it.
TEST(GraphSpecGolden, GenOnlyFamiliesAreBitIdentical) {
  struct Row {
    const char* flags;  // the equivalent `latgossip gen` flags
    GraphSpec spec;
    std::uint64_t digest;
  };
  std::vector<Row> rows;
  auto add = [&rows](const char* flags, GraphSpec spec, std::uint64_t digest) {
    rows.push_back({flags, std::move(spec), digest});
  };
  auto range_1_8 = [](GraphSpec s) {
    s.latency = LatencyModel::kRange;
    s.lat_lo = 1;
    s.lat_hi = 8;
    return s;
  };
  add("--family=clique --n=10", gen_like("clique", 10, 1),
      0xd671e2064036b3ebULL);
  GraphSpec path = gen_like("path", 15, 1);
  path.latency = LatencyModel::kUniform;
  path.lat_lo = 2;
  add("--family=path --n=15 --lat-uniform=2", path, 0x59d5a9e707099166ULL);
  add("--family=ring --n=20 --seed=3 --lat-range=1,8",
      range_1_8(gen_like("ring", 20, 3)), 0x3a6fb6b10a2aefc7ULL);
  GraphSpec grid = gen_like("grid", 32, 4);
  grid.rows = 4;
  grid.cols = 7;
  grid.latency = LatencyModel::kTwoLevel;
  grid.lat_lo = 1;
  grid.lat_hi = 10;
  grid.lat_p_fast = 0.5;
  add("--family=grid --rows=4 --cols=7 --seed=4 --lat-twolevel=1,10,0.5",
      grid, 0xf30cf5d86763924aULL);
  GraphSpec ws = gen_like("ws", 40, 5);
  ws.k = 2;
  ws.beta = 0.2;
  add("--family=ws --n=40 --k=2 --beta=0.2 --seed=5", ws,
      0x1a0f3462cbf44d6bULL);
  GraphSpec ring_cliques = gen_like("ring_cliques", 32, 1);
  ring_cliques.cliques = 4;
  ring_cliques.size = 5;
  ring_cliques.bridge = 8;
  add("--family=ring_cliques --cliques=4 --size=5 --bridge=8", ring_cliques,
      0x299c9ecf9aaf7ebeULL);
  GraphSpec dumbbell = gen_like("dumbbell", 32, 1);
  dumbbell.size = 5;
  dumbbell.bridge = 3;
  add("--family=dumbbell --size=5 --bridge=3", dumbbell,
      0xba7dc1d6add805eaULL);
  GraphSpec thm8 = gen_like("thm8", 32, 6);
  thm8.alpha = 0.25;
  thm8.ell = 8;
  add("--family=thm8 --n=32 --alpha=0.25 --ell=8 --seed=6", thm8,
      0xe78e3c0d9614fe68ULL);
  GraphSpec er = range_1_8(gen_like("er", 64, 2));
  er.p = 0.1;
  er.streaming = true;
  add("--family=er --n=64 --p=0.1 --streaming --seed=2 --lat-range=1,8", er,
      0x027cd66967ba4f75ULL);
  GraphSpec regular = range_1_8(gen_like("regular", 40, 7));
  regular.d = 4;
  regular.streaming = true;
  add("--family=regular --n=40 --d=4 --streaming --seed=7 --lat-range=1,8",
      regular, 0x31a565a25de15d1aULL);
  GraphSpec ba = range_1_8(gen_like("ba", 50, 11));
  ba.attach = 3;
  ba.streaming = true;
  add("--family=ba --n=50 --attach=3 --streaming --seed=11 --lat-range=1,8",
      ba, 0xf1cb0cfb30642ab2ULL);

  for (const Row& row : rows)
    EXPECT_EQ(graph_digest(generate_graph(row.spec)), row.digest) << row.flags;
}

TEST(GraphSpecGolden, ServeKeepsItsFamiliesAndLatencyModels) {
  // gen-only families stay outside serve's request schema.
  for (const char* json : {R"({"family":"grid"})", R"({"family":"thm8"})",
                           R"({"family":"cycle","lat":"twolevel"})"})
    EXPECT_THROW(serve_spec(json), std::invalid_argument) << json;
  GraphSpec bad;
  bad.family = "moebius";
  EXPECT_THROW(generate_graph(bad), std::invalid_argument);
}

RunSpec pushpull_spec(std::uint64_t seed, std::int64_t trials) {
  RunSpec spec;
  spec.seed = seed;
  spec.trials = trials;
  spec.threads = 2;
  return spec;
}

std::string rejection(const RunSpec& spec, std::size_t n) {
  try {
    validate_run(spec, n);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RunExecutor, ValidationRejectsBeforeNarrowing) {
  const std::string trials = "trials must be in [1, 1000000]";
  EXPECT_EQ(rejection(pushpull_spec(1, 0), 16), trials);
  EXPECT_EQ(rejection(pushpull_spec(1, -1), 16), trials);
  EXPECT_EQ(rejection(pushpull_spec(1, 1'000'001), 16), trials);
  EXPECT_EQ(rejection(pushpull_spec(1, 1'000'000), 16), "");

  RunSpec source = pushpull_spec(1, 2);
  source.protocol = "flooding";
  for (std::int64_t bad : {std::int64_t{16}, std::int64_t{99},
                           std::int64_t{-1}, std::int64_t{1} << 32}) {
    source.source = bad;
    EXPECT_EQ(rejection(source, 16), "source out of range") << bad;
  }
  source.source = 15;
  EXPECT_EQ(rejection(source, 16), "");

  RunSpec proto = pushpull_spec(1, 2);
  proto.protocol = "nope";
  EXPECT_EQ(rejection(proto, 16), "unknown protocol 'nope'");

  RunSpec scenario = pushpull_spec(1, 2);
  scenario.protocol = "eid";
  scenario.dynamics.churn_prob = 0.3;
  scenario.dynamics.churn_window = 4;
  EXPECT_NE(rejection(scenario, 16).find("pushpull|flooding"),
            std::string::npos);

  RunSpec rep = pushpull_spec(1, 2);
  rep.protocol = "flooding";
  EXPECT_EQ(protocol_label(rep), "flooding/dense");
  EXPECT_EQ(protocol_label(pushpull_spec(1, 2)), "pushpull");

  // execute() runs the same validation: nothing is allocated for a
  // zero-trial batch.
  const WeightedGraph g =
      generate_graph(serve_spec(R"({"family":"cycle","n":8})"));
  EXPECT_THROW(execute(pushpull_spec(1, 0), g, RunSinks{}),
               std::invalid_argument);
  RunSpec flooding = pushpull_spec(1, 2);
  flooding.protocol = "flooding";
  RunSinks curves;
  curves.curves = true;
  EXPECT_THROW(execute(flooding, g, curves), std::invalid_argument);
}

TEST(RunExecutor, SingleTrialIsABatchOfOne) {
  const WeightedGraph g =
      generate_graph(serve_spec(R"({"family":"er","n":48,"p":0.15,"seed":4})"));
  const std::string dir = scratch_dir("single");
  ExperimentStore store(dir);
  RunSinks stored;
  stored.store = &store;
  const RunOutcome plain = execute(pushpull_spec(3, 1), g, RunSinks{});
  const RunOutcome cached = execute(pushpull_spec(3, 1), g, stored);
  ASSERT_EQ(plain.agg.trials.size(), 1u);
  EXPECT_EQ(cached.store.misses, 1u);
  // Trial 0 is seeded with trial_seed(seed, 0) either way; only the
  // store run records, so compare everything but the fingerprint.
  SimResult a = plain.agg.trials[0];
  SimResult b = cached.agg.trials[0];
  b.fingerprint = 0;
  EXPECT_EQ(a, b);

  NetworkView view(g, false);
  PushPullBroadcast direct(view, 0, Rng(trial_seed(3, 0)));
  SimOptions opts;
  opts.max_rounds = 5'000'000;
  const SimResult expected = run_gossip(g, direct, opts);
  EXPECT_EQ(a, expected);
  std::filesystem::remove_all(dir);
}

TEST(RunExecutor, ServeCellsHitFromExecuteOverParsedText) {
  const std::string dir = scratch_dir("share");
  ExperimentStore store(dir);
  const char* graph_json =
      R"({"family":"er","n":64,"p":0.1,"seed":2,"lat":"range","lat_lo":1,)"
      R"("lat_hi":8})";
  const std::string request =
      std::string(R"({"op":"completion_time","graph":)") + graph_json +
      R"(,"proto":"pushpull","seed":5,"trials":4})";
  const std::optional<JsonValue> response =
      json_parse(handle_request(store, request, 2, nullptr));
  ASSERT_TRUE(response && response->get_bool("ok", false));
  EXPECT_EQ(response->get("store")->get_i64("misses", -1), 4);

  // The same graph, written as text and parsed back the way `run --in`
  // reads it: content-addressed keys make the batch all hits.
  const WeightedGraph g =
      graph_from_string(graph_to_string(generate_graph(serve_spec(
          graph_json))));
  RunSinks sinks;
  sinks.store = &store;
  const RunOutcome out = execute(pushpull_spec(5, 4), g, sinks);
  EXPECT_EQ(out.store.hits, 4u);
  EXPECT_EQ(out.store.misses, 0u);
  std::string fingerprint;
  json_append_fingerprint(fingerprint, out.agg.fingerprint);
  EXPECT_EQ('"' + response->get("result")->get_string("fingerprint", "") + '"',
            fingerprint);
  std::filesystem::remove_all(dir);
}

TEST(RunExecutor, CurvesReplayFromStoreAndMatchLiveRuns) {
  const WeightedGraph g =
      generate_graph(serve_spec(R"({"family":"ba","n":50,"attach":3,)"
                                R"("seed":11})"));
  const std::string dir = scratch_dir("curves");
  ExperimentStore store(dir);
  RunSinks live;
  live.curves = true;
  RunSinks stored = live;
  stored.store = &store;
  const RunOutcome plain = execute(pushpull_spec(3, 5), g, live);
  const RunOutcome cold = execute(pushpull_spec(3, 5), g, stored);
  const RunOutcome warm = execute(pushpull_spec(3, 5), g, stored);
  EXPECT_EQ(cold.store.misses, 5u);
  EXPECT_EQ(warm.store.hits, 5u);
  EXPECT_EQ(plain.curves, cold.curves);
  EXPECT_EQ(plain.curves, warm.curves);
  // Curve cells are their own kind: a plain batch misses them.
  RunSinks sim;
  sim.store = &store;
  EXPECT_EQ(execute(pushpull_spec(3, 5), g, sim).store.misses, 5u);
  std::filesystem::remove_all(dir);
}

TEST(RunExecutor, TraceRecomputesStoreHits) {
  const WeightedGraph g =
      generate_graph(serve_spec(R"({"family":"cycle","n":10})"));
  const std::string dir = scratch_dir("trace");
  ExperimentStore store(dir);
  RunSinks sinks;
  sinks.store = &store;
  sinks.freshness = true;
  execute(pushpull_spec(2, 3), g, sinks);
  sinks.trace_path = dir + "/t.csv";
  const RunOutcome out = execute(pushpull_spec(2, 3), g, sinks);
  EXPECT_EQ(out.store.hits, 3u);
  EXPECT_EQ(out.store.verified, 3u);
  EXPECT_TRUE(out.recomputed_hits);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_GT(out.trace_events[t], 0u);
    EXPECT_TRUE(out.freshness[t].valid);  // the live body ran
    EXPECT_TRUE(
        std::filesystem::exists(trial_trace_path(sinks.trace_path, t, 3)));
  }
  std::filesystem::remove_all(dir);
}

// Flooding cells and manifest records are named "flooding/dense", the
// name every existing store and manifest holds, so their records keep
// hitting.
TEST(RunExecutor, FloodingCellsKeepTheirStoreKeys) {
  const WeightedGraph g =
      generate_graph(serve_spec(R"({"family":"er","n":40,"p":0.2,"seed":6})"));
  const std::string dir = scratch_dir("flooding_keys");
  ExperimentStore store(dir);
  RunSpec spec = pushpull_spec(9, 2);
  spec.protocol = "flooding";
  spec.source = 3;
  RunSinks sinks;
  sinks.store = &store;
  sinks.manifest_path = dir + "/manifest.jsonl";
  const RunOutcome out = execute(spec, g, sinks);
  ASSERT_EQ(out.store.misses, 2u);

  CellSpec cell;
  cell.protocol = "flooding/dense";
  cell.graph = graph_digest(g);
  cell.source = 3;
  cell.max_rounds = spec.max_rounds;
  cell.faults = canonical_dynamics(spec.dynamics);
  for (std::size_t t = 0; t < 2; ++t) {
    const std::optional<StoreRecord> rec =
        store.lookup(cell_key(cell, trial_seed(9, t)));
    ASSERT_TRUE(rec) << "trial " << t;
    EXPECT_EQ(rec->result, out.agg.trials[t]);
  }

  std::ifstream manifest(sinks.manifest_path);
  std::size_t records = 0;
  for (std::string line; std::getline(manifest, line); ++records)
    EXPECT_NE(line.find(R"("protocol":"flooding/dense")"), std::string::npos)
        << line;
  EXPECT_EQ(records, 2u);
  std::filesystem::remove_all(dir);
}

// Composites run on the pool worker's workspace with one context per
// trial, so a batch is the same at any thread count, and every manifest
// record accounts for the whole run: each delivery is recorded, and the
// phase rows add up to the run's counters.
TEST(RunExecutor, CompositesAgreeAcrossThreadsAndWithTheirManifests) {
  const WeightedGraph g = generate_graph(serve_spec(
      R"({"family":"er","n":20,"p":0.25,"seed":3,"lat":"range",)"
      R"("lat_lo":1,"lat_hi":4})"));
  ASSERT_TRUE(g.is_connected());
  const std::string dir = scratch_dir("composites");
  std::filesystem::create_directories(dir);
  for (const auto& [protocol, known] :
       {std::pair{"eid", false}, std::pair{"tk", false},
        std::pair{"unified", false}, std::pair{"unified", true}}) {
    RunSpec spec = pushpull_spec(7, 4);
    spec.protocol = protocol;
    spec.known_latencies = known;
    const std::string label =
        std::string(protocol) + (known ? "_known" : "");
    std::vector<RunOutcome> runs;
    for (const std::size_t threads : {1, 2}) {
      spec.threads = threads;
      RunSinks sinks;
      sinks.manifest_path =
          dir + "/" + label + "_t" + std::to_string(threads) + ".jsonl";
      runs.push_back(execute(spec, g, sinks));

      std::ifstream manifest(sinks.manifest_path);
      std::size_t records = 0;
      for (std::string line; std::getline(manifest, line); ++records) {
        const std::optional<JsonValue> rec = json_parse(line);
        ASSERT_TRUE(rec) << line;
        const JsonValue* result = rec->get("result");
        const JsonValue* metrics = rec->get("metrics");
        ASSERT_TRUE(result && metrics) << line;
        const JsonValue* latency =
            metrics->get("histograms")->get("delivery_latency");
        ASSERT_TRUE(latency) << label;
        EXPECT_EQ(latency->get_u64("count", 0),
                  result->get_u64("messages_delivered", 1))
            << label << " trial " << records;
        std::uint64_t activations = 0;
        std::uint64_t payload_bits = 0;
        for (const auto& [name, row] : metrics->get("phases")->members()) {
          activations += row.get_u64("activations", 0);
          payload_bits += row.get_u64("payload_bits", 0);
        }
        EXPECT_EQ(activations, result->get_u64("activations", 0)) << label;
        EXPECT_EQ(payload_bits, result->get_u64("payload_bits", 0)) << label;
      }
      EXPECT_EQ(records, 4u) << label;
    }
    const TrialAggregate& one = runs[0].agg;
    const TrialAggregate& two = runs[1].agg;
    EXPECT_EQ(one.trials, two.trials) << label;
    EXPECT_EQ(one.fingerprint, two.fingerprint) << label;
    EXPECT_NE(one.fingerprint, 0u) << label;
    EXPECT_EQ(one.num_completed, two.num_completed) << label;
    EXPECT_EQ(one.rounds.mean(), two.rounds.mean()) << label;
    EXPECT_EQ(one.rounds.variance(), two.rounds.variance()) << label;
    EXPECT_EQ(one.activations.mean(), two.activations.mean()) << label;
    EXPECT_EQ(one.messages_delivered.mean(), two.messages_delivered.mean())
        << label;
    EXPECT_EQ(one.payload_bits.mean(), two.payload_bits.mean()) << label;
    EXPECT_EQ(runs[0].winners, runs[1].winners) << label;
  }
  std::filesystem::remove_all(dir);
}

TEST(SpreadEnvelope, HoldsFinishedTrialsAtFinalCount) {
  const SpreadEnvelope env = spread_envelope({{1, 3, 4}, {1, 2}, {}});
  ASSERT_EQ(env.rounds(), 3u);
  EXPECT_EQ(env.trials, 3u);
  EXPECT_EQ(env.min, (std::vector<std::uint64_t>{0, 0, 0}));
  EXPECT_EQ(env.max, (std::vector<std::uint64_t>{1, 3, 4}));
  EXPECT_EQ(env.sum, (std::vector<std::uint64_t>{2, 5, 6}));
  EXPECT_DOUBLE_EQ(env.mean(2), 2.0);
  EXPECT_EQ(trial_trace_path("dir/t.json", 2, 4), "dir/t.t2.json");
  EXPECT_EQ(trial_trace_path("dir.x/trace", 1, 4), "dir.x/trace.t1");
  EXPECT_EQ(trial_trace_path("t.json", 0, 1), "t.json");
}

TEST(JsonFragments, ManifestsAndStoreRecordsShareTheResultObject) {
  SimResult r;
  r.rounds = -3;
  r.completed = true;
  r.activations = 7;
  r.messages_delivered = 14;
  r.messages_dropped = 1;
  r.exchanges_rejected = 2;
  r.payload_bits = 28;
  r.max_inflight = 5;
  r.fingerprint = 0xabcULL;
  std::string object;
  json_append_sim_result(object, r);
  EXPECT_EQ(object,
            R"({"rounds":-3,"completed":true,"activations":7,)"
            R"("messages_delivered":14,"messages_dropped":1,)"
            R"("exchanges_rejected":2,"payload_bits":28,"max_inflight":5,)"
            R"("fingerprint":"0x0000000000000abc"})");
  StoreRecord rec;
  rec.result = r;
  rec.wall_ms = 1.5;
  const std::string line = store_record_line(StoreKey{1, 2}, rec);
  EXPECT_NE(line.find("\"result\":" + object + ",\"wall_ms\":1.500"),
            std::string::npos)
      << line;
  RunInfo info;
  const std::string manifest = manifest_record(info, 0, 9, r, 1.5, "");
  EXPECT_NE(manifest.find("\"result\":" + object + ",\"wall_ms\":1.500"),
            std::string::npos)
      << manifest;
  std::string fixed;
  json_append_fixed(fixed, 2.0 / 3.0, 4);
  EXPECT_EQ(fixed, "0.6667");
}

}  // namespace
}  // namespace latgossip
