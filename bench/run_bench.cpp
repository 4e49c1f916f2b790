// run_bench — JSON-emitting engine + graph throughput snapshot.
//
// Measures the simulator hot path on the same workloads as
// bench/micro_engine (google-benchmark) but with a tiny self-contained
// harness, and writes the numbers as JSON (default BENCH_engine.json)
// so successive PRs can track the engine's throughput trajectory:
//
//   ./run_bench [--out=BENCH_engine.json] [--graph_out=BENCH_graph.json]
//               [--repeats=5] [--smoke]
//
// The emitted files also carry pre-overhaul baselines recorded on the
// seed binaries (same machine class), so every regeneration shows
// before/after side by side: BENCH_engine.json against the
// pre-calendar-queue engine and (for the rumor-set rows) against the
// pre-snapshot-arena protocols, BENCH_graph.json against the pre-CSR
// adjacency-list WeightedGraph with its unordered_map edge index.
//
// --smoke is the CI bench-rot guard: every workload runs once at tiny
// sizes and nothing is written, so the bench binary itself is exercised
// on every PR without touching the checked-in JSON numbers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/distance.h"
#include "core/eid.h"
#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/freshness.h"
#include "sim/parallel.h"
#include "store/server.h"
#include "store/store.h"
#include "util/args.h"

using namespace latgossip;

namespace {

/// Pre-overhaul numbers: the seed engine (vector-of-vectors schedule
/// with per-round shrink_to_fit, per-event std::function checks,
/// find_edge hash lookup per activation) compiled -O3 and run on these
/// exact workloads on the same machine. The hooked variant did not
/// exist pre-PR — the old engine always paid the dynamic hook checks,
/// so its plain number doubles as its hooked one.
struct Baseline {
  const char* name;
  double ns;
};
constexpr Baseline kPrePrBaseline[] = {
    {"pushpull_broadcast_64", 112631.0},
    {"pushpull_broadcast_512", 1248112.0},
    {"pushpull_broadcast_4096", 22624514.0},
    {"pushpull_alltoall_512", 4673565.0},
};

/// Pre-snapshot-arena numbers: the deep-copy Bitset payload protocols
/// (full rumor-set copy on every capture, count() re-scan per
/// delivery), RelWithDebInfo without -mpopcnt (the pre-COW build),
/// this machine, measured with this harness from a pre-COW checkout in
/// the same time window as the committed current_ns block — this box's
/// throughput drifts 10–25% between sessions, so cross-window ratios
/// would be noise.
constexpr Baseline kPreCowBaseline[] = {
    {"pushpull_alltoall_512", 4386534.0},
    {"pushpull_alltoall_4096", 365926906.0},
    {"eid_alltoall", 136102186.0},
    {"run_trials_8x4096_t1", 62377881.0},
};

/// Pre-trial-pool numbers: run_trials spawning fresh std::threads per
/// call, one shared fetch_add counter, no workspace reuse (every trial
/// rebuilt engine + protocol from scratch). Measured with an equivalent
/// driver from a pre-pool checkout, A/B-interleaved with the current
/// build in the same time window (same box, same workloads; 3
/// alternating rounds of 3 repeats, per-row minimum of the round
/// means — this virtualized box's noise is one-sided, so min is the
/// robust estimator). The scaling story they tell: adding threads made
/// these batches SLOWER — this machine class is single-core, so t>1
/// was pure oversubscription plus allocator churn (DESIGN.md §5h).
constexpr Baseline kPrePoolBaseline[] = {
    {"run_trials_16x512_t1", 11731824.0},
    {"run_trials_16x512_t2", 12001388.0},
    {"run_trials_16x512_t4", 12239976.0},
    {"run_trials_16x512_t8", 12502834.0},
    {"run_trials_8x4096_t1", 65620516.0},
    {"run_trials_8x4096_t2", 75958953.0},
    {"run_trials_8x4096_t4", 75808032.0},
    {"run_trials_8x4096_t8", 77972679.0},
    {"run_trials_10k_sweep_t1", 532428735.0},
    {"run_trials_10k_sweep_t2", 501738593.0},
    {"run_trials_10k_sweep_t4", 506816635.0},
    {"run_trials_10k_sweep_t8", 535693595.0},
};

/// Pre-CSR graph numbers: the seed WeightedGraph (vector-of-vectors
/// adjacency, unordered_map<packed pair, EdgeId> for find_edge) compiled
/// -O2 -g -DNDEBUG (RelWithDebInfo parity) and run on these exact
/// workloads on the same machine, just before the GraphBuilder/CSR
/// refactor landed.
constexpr Baseline kPreCsrBaseline[] = {
    {"graph_build_hypercube16", 140696304.0},
    {"find_edge_hypercube16", 78582545.0},
    {"neighbor_scan_hypercube16", 2028447.0},
    {"bfs_hypercube16", 3939332.0},
    {"dijkstra_hypercube16", 32622486.0},
};

double measure_ns(const std::function<void()>& body, int repeats) {
  body();  // warm-up (also warms the calendar-queue buckets)
  double best = 0.0;
  double total = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                stop - start)
                                .count());
    total += ns;
    if (best == 0.0 || ns < best) best = ns;
  }
  (void)best;
  return total / repeats;
}

WeightedGraph bench_graph(std::size_t n) {
  Rng grng(1);
  auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
  assign_random_uniform_latency(g, 1, 8, grng);
  return g;
}

struct Case {
  std::string name;
  double ns;
  /// Process peak RSS (VmHWM) sampled right after the row ran. A
  /// high-water mark: monotone across rows, so a row's value bounds
  /// everything up to and including it — the big-memory rows run last
  /// so the small rows keep meaningful readings.
  std::size_t peak_rss = 0;
};

/// Measure one row and stamp the post-row RSS high-water mark.
Case make_case(std::string name, const std::function<void()>& body,
               int repeats) {
  const double ns = measure_ns(body, repeats);
  return Case{std::move(name), ns, peak_rss_bytes()};
}

/// One run_trials workload measured across thread counts; rendered as a
/// "thread_scaling" JSON object with per-count parallel efficiency
/// (t1_ns / (tk_ns * k), as a percentage — 100% is perfect scaling, and
/// anything above the pre-pool baseline's <= ~100/k% means the
/// inversion is gone).
struct ScalingEntry {
  std::string family;
  std::vector<std::pair<std::size_t, double>> ns_by_threads;
};

std::string scaling_json(const std::vector<ScalingEntry>& entries) {
  if (entries.empty()) return "";
  std::string out = ",\n  \"thread_scaling\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ScalingEntry& e = entries[i];
    double t1 = 0.0;
    for (const auto& [threads, ns] : e.ns_by_threads)
      if (threads == 1) t1 = ns;
    out += "    \"" + e.family + "\": {";
    bool first = true;
    for (const auto& [threads, ns] : e.ns_by_threads) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s\"t%zu_ns\": %.0f",
                    first ? "" : ", ", threads, ns);
      first = false;
      out += buf;
    }
    for (const auto& [threads, ns] : e.ns_by_threads) {
      if (threads == 1 || t1 <= 0.0 || ns <= 0.0) continue;
      char buf[96];
      std::snprintf(buf, sizeof(buf), ", \"efficiency_t%zu_pct\": %.1f",
                    threads, 100.0 * t1 / (ns * static_cast<double>(threads)));
      out += buf;
    }
    out += i + 1 < entries.size() ? "},\n" : "}\n";
  }
  out += "  }";
  return out;
}

/// One named before-numbers block: "<ns_key>" object plus a
/// "<speedup_key>" ratio object covering every case with a counterpart.
struct BaselineBlock {
  const char* ns_key;
  const char* speedup_key;
  const Baseline* rows;
  std::size_t count;
};

/// Emit one snapshot file: the baseline blocks, the current block, and
/// per-block speedup ratios.
int write_json(const std::string& out, const char* bench,
               const char* workload, int repeats,
               const std::vector<BaselineBlock>& baselines,
               const std::vector<Case>& cases,
               const std::string& extra_json = std::string()) {
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"build\": %s,\n", build_info_json().c_str());
  std::fprintf(f, "  \"workload\": \"%s\",\n", workload);
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  for (const BaselineBlock& b : baselines) {
    std::fprintf(f, "  \"%s\": {\n", b.ns_key);
    for (std::size_t i = 0; i < b.count; ++i)
      std::fprintf(f, "    \"%s\": %.0f%s\n", b.rows[i].name, b.rows[i].ns,
                   i + 1 < b.count ? "," : "");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"current_ns\": {\n");
  for (std::size_t i = 0; i < cases.size(); ++i)
    std::fprintf(f, "    \"%s\": %.0f%s\n", cases[i].name.c_str(),
                 cases[i].ns, i + 1 < cases.size() ? "," : "");
  std::fprintf(f, "  },\n");
  // Peak RSS (VmHWM) after each row, in row order. Monotone by
  // construction; the last row's value is the whole run's peak.
  std::fprintf(f, "  \"peak_rss_bytes\": {\n");
  for (std::size_t i = 0; i < cases.size(); ++i)
    std::fprintf(f, "    \"%s\": %zu%s\n", cases[i].name.c_str(),
                 cases[i].peak_rss, i + 1 < cases.size() ? "," : "");
  std::fprintf(f, "  }");
  for (const BaselineBlock& b : baselines) {
    std::fprintf(f, ",\n  \"%s\": {\n", b.speedup_key);
    bool first = true;
    std::string speedups;
    for (std::size_t i = 0; i < b.count; ++i) {
      for (const Case& c : cases) {
        if (c.name == b.rows[i].name) {
          if (!first) speedups += ",\n";
          first = false;
          char buf[128];
          std::snprintf(buf, sizeof(buf), "    \"%s\": %.2f", b.rows[i].name,
                        b.rows[i].ns / c.ns);
          speedups += buf;
        }
      }
    }
    std::fprintf(f, "%s\n  }", speedups.c_str());
  }
  if (!extra_json.empty()) std::fprintf(f, "%s", extra_json.c_str());
  std::fprintf(f, "\n}\n");
  std::fclose(f);

  std::printf("%s throughput snapshot (%d repeats each):\n", bench, repeats);
  for (const Case& c : cases)
    std::printf("  %-32s %12.0f ns\n", c.name.c_str(), c.ns);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// Graph-substrate primitives on the `dim`-dimensional hypercube
/// (dim 16: 65536 nodes, 524288 edges; --smoke drops to dim 8): build,
/// random find_edge probes, a full adjacency sweep, and the two
/// traversals layered on neighbors().
std::vector<Case> run_graph_cases(int repeats, std::size_t dim,
                                  int find_edge_probes) {
  std::vector<Case> cases;
  const std::string suffix = "_hypercube" + std::to_string(dim);
  Rng grng(1);
  auto g = make_hypercube(dim);
  assign_random_uniform_latency(g, 1, 8, grng);
  const std::size_t n = g.num_nodes();

  cases.push_back(make_case("graph_build" + suffix,
                            [&] {
                              auto gg = make_hypercube(dim);
                              volatile auto m = gg.num_edges();
                              (void)m;
                            },
                            std::max(repeats / 2, 2)));
  cases.push_back(make_case(
      "find_edge" + suffix,
      [&] {
        Rng r(7);
        std::size_t acc = 0;
        for (int i = 0; i < find_edge_probes; ++i) {
          if (i & 1) {
            const Edge& e = g.edges()[r.uniform(g.num_edges())];
            acc += g.find_edge(e.u, e.v).value();
          } else {
            acc += g.find_edge(static_cast<NodeId>(r.uniform(n)),
                               static_cast<NodeId>(r.uniform(n)))
                       .value_or(0);
          }
        }
        volatile auto a = acc;
        (void)a;
      },
      repeats));
  cases.push_back(make_case(
      "neighbor_scan" + suffix,
      [&] {
        std::size_t acc = 0;
        for (NodeId u = 0; u < n; ++u)
          for (const HalfEdge& h : g.neighbors(u))
            acc += h.to + static_cast<std::size_t>(g.latency(h.edge));
        volatile auto a = acc;
        (void)a;
      },
      repeats));
  cases.push_back(make_case("bfs" + suffix,
                            [&] {
                              volatile auto h = bfs_hops(g, 0).back();
                              (void)h;
                            },
                            repeats));
  cases.push_back(make_case("dijkstra" + suffix,
                            [&] {
                              volatile auto d = dijkstra(g, 0).back();
                              (void)d;
                            },
                            repeats));
  return cases;
}

/// Query-server throughput: the same 512-node push–pull sweep asked
/// twice through the in-process request core (store/server.h), first
/// against an empty store (every cell computed and inserted) and then
/// again (every cell answered from the index). Cold can only be
/// measured once per store lifetime, so its single pass and the warm
/// repeats run back to back in the same time window — the same
/// same-window methodology the pre-pool baselines use; cross-window
/// ratios on this box are noise.
struct StoreQps {
  std::size_t cells = 0;
  std::size_t trials = 0;
  std::size_t nodes = 0;
  double cold_ns = 0.0;  ///< one pass over all cells, all misses
  double warm_ns = 0.0;  ///< mean pass over all cells, all hits
};

StoreQps run_store_qps(bool smoke, int repeats) {
  StoreQps r;
  r.nodes = smoke ? 32 : 512;
  r.cells = smoke ? 4 : 64;
  r.trials = smoke ? 2 : 8;
  const auto dir =
      std::filesystem::temp_directory_path() / "latgossip_bench_store";
  std::filesystem::remove_all(dir);
  ExperimentStore store(dir.string());

  // One graph spec, varying batch seed: each query is its own cell set
  // but the server's graph cache keeps substrate construction out of
  // the numbers — this row prices the store, not the generator.
  const auto request = [&](std::size_t i) {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"op\":\"completion_time\",\"graph\":{\"family\":\"er\",\"n\":%zu,"
        "\"p\":%.6f,\"seed\":1,\"lat\":\"range\",\"lat_lo\":1,\"lat_hi\":8},"
        "\"proto\":\"pushpull\",\"seed\":%zu,\"trials\":%zu}",
        r.nodes, 8.0 / static_cast<double>(r.nodes), i + 1, r.trials);
    return std::string(buf);
  };
  const auto pass = [&](const char* expect) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < r.cells; ++i) {
      const std::string resp = handle_request(store, request(i), 0, nullptr);
      if (resp.rfind("{\"ok\":true", 0) != 0 ||
          resp.find(expect) == std::string::npos) {
        std::fprintf(stderr, "store_qps: unexpected response %s\n",
                     resp.c_str());
        std::exit(1);
      }
    }
    const auto stop = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
  };

  char miss_tag[32], hit_tag[32];
  std::snprintf(miss_tag, sizeof(miss_tag), "\"misses\":%zu", r.trials);
  std::snprintf(hit_tag, sizeof(hit_tag), "\"hits\":%zu,\"misses\":0",
                r.trials);
  r.cold_ns = pass(miss_tag);
  double warm_total = 0.0;
  for (int i = 0; i < repeats; ++i) warm_total += pass(hit_tag);
  r.warm_ns = warm_total / repeats;
  std::filesystem::remove_all(dir);
  return r;
}

int write_store_json(const std::string& out, int repeats, const StoreQps& q) {
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  const double cold_qps = 1e9 * static_cast<double>(q.cells) / q.cold_ns;
  const double warm_qps = 1e9 * static_cast<double>(q.cells) / q.warm_ns;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"store_qps\",\n");
  std::fprintf(f, "  \"build\": %s,\n", build_info_json().c_str());
  std::fprintf(f,
               "  \"workload\": \"erdos_renyi n=%zu avg-degree 8, latencies "
               "uniform[1,8], push-pull; %zu completion_time queries x %zu "
               "trials via in-process handle_request, cold then warm in the "
               "same window\",\n",
               q.nodes, q.cells, q.trials);
  std::fprintf(f, "  \"warm_repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"cells\": %zu,\n", q.cells);
  std::fprintf(f, "  \"trials_per_cell\": %zu,\n", q.trials);
  std::fprintf(f, "  \"cold\": { \"total_ns\": %.0f, \"qps\": %.1f },\n",
               q.cold_ns, cold_qps);
  std::fprintf(f, "  \"warm\": { \"total_ns\": %.0f, \"qps\": %.1f },\n",
               q.warm_ns, warm_qps);
  std::fprintf(f, "  \"warm_over_cold\": %.1f\n", warm_qps / cold_qps);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("store_qps: cold %.1f qps, warm %.1f qps (%.0fx)\n", cold_qps,
              warm_qps, warm_qps / cold_qps);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  args.allow_only({"out", "graph_out", "store_out", "repeats", "smoke"});
  const std::string out = args.get("out", "BENCH_engine.json");
  const std::string graph_out = args.get("graph_out", "BENCH_graph.json");
  const std::string store_out = args.get("store_out", "BENCH_store.json");
  const bool smoke = args.get_bool("smoke");
  const int repeats = smoke ? 1 : static_cast<int>(args.get_int("repeats", 5));

  // Smoke mode shrinks every workload to seconds-total CI size.
  const std::vector<std::size_t> broadcast_sizes =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 512, 4096};
  const std::size_t big_n = smoke ? 64 : 4096;
  const std::size_t a2a_small_n = smoke ? 64 : 512;
  const std::size_t eid_n = smoke ? 64 : 256;
  const std::size_t trials_small = smoke ? 4 : 16;
  const std::size_t trials_big = smoke ? 4 : 8;

  std::vector<Case> cases;

  for (std::size_t n : broadcast_sizes) {
    const WeightedGraph g = bench_graph(n);
    std::uint64_t seed = 0;
    cases.push_back(make_case(
        "pushpull_broadcast_" + std::to_string(n),
        [&] {
          NetworkView view(g, false);
          PushPullBroadcast proto(view, 0, Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          (void)run_gossip(g, proto, opts);
        },
        repeats));
  }

  {
    // An inert scenario forces the hooked path; the gap to the plain row
    // is what the compile-time NoHooks policy saves.
    const WeightedGraph g = bench_graph(big_n);
    DynamicPlan inert(g.num_nodes(), g.num_edges(), DynamicSpec{});
    std::uint64_t seed = 0;
    cases.push_back(make_case(
        "pushpull_broadcast_" + std::to_string(big_n) + "_hooked",
        [&] {
          NetworkView view(g, false);
          PushPullBroadcast proto(view, 0, Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          opts.dynamics = &inert;
          (void)run_gossip(g, proto, opts);
        },
        repeats));
  }

  {
    // Full recording attached, recorder reused across runs (clear()
    // keeps storage — the per-thread steady state of run_trials and the
    // CLI). This is the recording-overhead number the observability
    // work bounds at <= 25% of plain.
    const WeightedGraph g = bench_graph(big_n);
    std::uint64_t seed = 0;
    EventRecorder recorder;
    cases.push_back(make_case(
        "pushpull_broadcast_" + std::to_string(big_n) + "_recorded",
        [&] {
          recorder.clear();
          NetworkView view(g, false);
          PushPullBroadcast proto(view, 0, Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          opts.recorder = &recorder;
          SimResult r = run_gossip(g, proto, opts);
          r.fingerprint = recorder.fingerprint();
          volatile auto fp = r.fingerprint;
          (void)fp;
        },
        repeats));
  }

  std::string freshness_json;
  {
    // Dynamics-hooked row: a drift + adversary schedule installed on the
    // same broadcast workload prices the scenario plan's work (the
    // plain rows above take the compile-time NoHooks path). The final
    // repeat's node-age freshness rides into the JSON as an observable
    // of the dynamic scenario, not a throughput number.
    const WeightedGraph g = bench_graph(big_n);
    DynamicSpec spec;
    spec.drift_step = 64;
    spec.drift_bound = 2048;
    spec.adv_slow = 1536;
    spec.seed = 11;
    std::uint64_t seed = 0;
    FreshnessStats fresh;
    cases.push_back(make_case(
        "pushpull_broadcast_" + std::to_string(big_n) + "_dynamics",
        [&] {
          NetworkView view(g, false);
          PushPullBroadcast proto(view, 0, Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          DynamicPlan plan(g.num_nodes(), g.num_edges(), spec);
          opts.dynamics = &plan;
          const SimResult r = run_gossip(g, proto, opts);
          fresh = freshness_of(proto, g.num_nodes(), r.rounds);
        },
        repeats));
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"freshness_dynamics_%zu\": { \"informed\": %zu, "
                  "\"node_age_max\": %lld, \"node_age_mean\": %.2f }",
                  big_n, fresh.informed_nodes,
                  static_cast<long long>(fresh.max_age), fresh.mean_age);
    freshness_json = buf;
  }

  // All-to-all rumor-set rows: the copy-on-write snapshot payload path
  // (util/snapshot.h). Payload volume scales with n * rounds, so these
  // are the rows the snapshot arena exists for.
  std::vector<std::size_t> a2a_sizes{a2a_small_n};
  if (big_n != a2a_small_n) a2a_sizes.push_back(big_n);
  for (std::size_t n : a2a_sizes) {
    const WeightedGraph g = bench_graph(n);
    std::uint64_t seed = 0;
    cases.push_back(make_case(
        "pushpull_alltoall_" + std::to_string(n),
        [&] {
          NetworkView view(g, false);
          PushPullGossip proto(view, GossipGoal::kAllToAll, 0,
                               PushPullGossip::own_id_rumors(n), Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          (void)run_gossip(g, proto, opts);
        },
        repeats));
  }

  {
    // Representation-threshold documentation (util/rumor_set.h,
    // kDenseNodeThreshold): the same all-to-all workload under the
    // sparse representation. Below the crossover dense must win — in
    // all-to-all every sparse set promotes to dense mid-run anyway, so
    // this row prices the abstraction, not a new algorithm. Compare
    // against pushpull_alltoall_<big_n> above.
    const std::size_t n = big_n;
    const WeightedGraph g = bench_graph(n);
    std::uint64_t seed = 0;
    cases.push_back(make_case(
        "pushpull_alltoall_" + std::to_string(n) + "_sparse",
        [&] {
          NetworkView view(g, false);
          BasicPushPullGossip<SparseRumorSet> proto(
              view, GossipGoal::kAllToAll, 0,
              own_id_rumor_sets<SparseRumorSet>(n), Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          (void)run_gossip(g, proto, opts);
        },
        repeats));
  }

  {
    // End-to-end General EID (guess-and-double, DTG discovery, spanner,
    // RR broadcast): every phase moves rumor-set payloads, so this is
    // the composite all-to-all number.
    const std::size_t n = eid_n;
    Rng grng(1);
    auto g = make_erdos_renyi(n, 8.0 / static_cast<double>(n), grng);
    assign_random_uniform_latency(g, 1, 8, grng);
    std::uint64_t seed = 0;
    cases.push_back(make_case("eid_alltoall",
                              [&] {
                                Rng rng(++seed);
                                (void)run_general_eid(g, n, rng);
                              },
                              repeats));
  }

  // The run_trials rows use the workspace overload — the production
  // sweep configuration: protocol and engine state parked per worker,
  // reset per trial (DESIGN.md §5h). Batches run on the persistent
  // TrialPool; the t1 rows exercise the sequential inline path with the
  // caller's own workspace.
  const auto reusing_trial = [](const WeightedGraph& g) {
    return [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
      NetworkView view(g, false);
      auto& proto = ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
      proto.reset(view, 0, rng);
      SimOptions opts;
      opts.max_rounds = 1'000'000;
      opts.workspace = &ws;
      return run_gossip(g, proto, opts);
    };
  };
  std::vector<ScalingEntry> scaling;
  const auto bench_trials_family = [&](const std::string& family,
                                       const WeightedGraph& g,
                                       std::size_t trials) {
    ScalingEntry entry{family, {}};
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      const auto fn = reusing_trial(g);
      cases.push_back(
          make_case(family + "_t" + std::to_string(threads),
                    [&] { (void)run_trials(trials, threads, 99, fn); },
                    repeats));
      entry.ns_by_threads.emplace_back(threads, cases.back().ns);
    }
    scaling.push_back(std::move(entry));
  };

  {
    const WeightedGraph g = bench_graph(a2a_small_n);
    bench_trials_family("run_trials_" + std::to_string(trials_small) + "x" +
                            std::to_string(a2a_small_n),
                        g, trials_small);
  }

  if (big_n != a2a_small_n) {
    // Bigger per-trial work: thread scaling on trials long enough that
    // per-trial setup is noise.
    const WeightedGraph g = bench_graph(big_n);
    bench_trials_family("run_trials_" + std::to_string(trials_big) + "x" +
                            std::to_string(big_n),
                        g, trials_big);
  }

  {
    // Many tiny trials: the sweep shape every EXPERIMENTS.md experiment
    // has (thousands of seeds, small graphs). Per-trial setup cost and
    // claim contention dominate here, so this row is the one the
    // chunked-claim pool and the workspace reuse move the most.
    const std::size_t sweep_trials = smoke ? 200 : 10'000;
    const WeightedGraph g = bench_graph(64);
    bench_trials_family("run_trials_10k_sweep", g, sweep_trials);
  }

  {
    // Million-node rows (ROADMAP item 2) — last, so their memory
    // high-water mark does not pollute the per-row RSS readings above.
    // Substrate: streaming random-regular d=8 (graph/generators.h) —
    // built through the two-pass CSR path, no intermediate edge list.
    const std::size_t mn = smoke ? 8192 : 1'000'000;
    const std::string mn_tag = smoke ? std::to_string(mn) : "1M";
    const int mn_repeats = std::max(repeats / 2, 1);
    Rng grng(1);
    WeightedGraph g = make_random_regular_streaming(mn, 8, 1);
    assign_random_uniform_latency(g, 1, 8, grng);
    std::uint64_t seed = 0;
    // Boolean-payload broadcast: the engine + calendar queue at 10^6
    // nodes, representation-independent.
    cases.push_back(make_case(
        "pushpull_broadcast_" + mn_tag,
        [&] {
          NetworkView view(g, false);
          PushPullBroadcast proto(view, 0, Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          (void)run_gossip(g, proto, opts);
        },
        mn_repeats));
    // Rumor-set single-source gossip under the sparse representation:
    // every set stays at <= 1 element, so per-node cost is O(1) where a
    // dense layout would need n^2/8 = 125 GB just for the sets. The
    // dense counterpart is unrunnable at this size — that asymmetry IS
    // the result; see DESIGN.md §5i.
    cases.push_back(make_case(
        "pushpull_gossip_sparse_" + mn_tag,
        [&] {
          NetworkView view(g, false);
          std::vector<SparseRumorSet> rumors(mn, SparseRumorSet(mn));
          rumors[0].set(0);
          BasicPushPullGossip<SparseRumorSet> proto(
              view, GossipGoal::kSingleSource, 0, std::move(rumors),
              Rng(++seed));
          SimOptions opts;
          opts.max_rounds = 1'000'000;
          (void)run_gossip(g, proto, opts);
        },
        mn_repeats));
  }

  const std::vector<BaselineBlock> engine_baselines = {
      {"baseline_pre_pr_ns", "speedup_vs_pre_pr", kPrePrBaseline,
       std::size(kPrePrBaseline)},
      {"baseline_pre_cow_ns", "speedup_vs_pre_cow", kPreCowBaseline,
       std::size(kPreCowBaseline)},
      {"baseline_pre_pool_ns", "speedup_vs_pre_pool", kPrePoolBaseline,
       std::size(kPrePoolBaseline)},
  };
  const std::vector<Case> graph_cases =
      run_graph_cases(repeats, smoke ? 8 : 16, smoke ? 100'000 : 1'000'000);
  const StoreQps store_qps = run_store_qps(smoke, std::max(repeats, 3));

  if (smoke) {
    // Bench-rot guard: everything above ran; write nothing.
    std::printf("smoke mode: %zu engine + %zu graph cases + store_qps "
                "(%zu cells) ran, no JSON written\n",
                cases.size(), graph_cases.size(), store_qps.cells);
    return 0;
  }

  const int engine_rc = write_json(
      out, "engine",
      "erdos_renyi avg-degree 8, latencies uniform[1,8], push-pull from "
      "node 0",
      repeats, engine_baselines, cases, scaling_json(scaling) + freshness_json);
  if (engine_rc != 0) return engine_rc;

  const std::vector<BaselineBlock> graph_baselines = {
      {"baseline_pre_csr_ns", "speedup_vs_pre_csr", kPreCsrBaseline,
       std::size(kPreCsrBaseline)},
  };
  const int graph_rc = write_json(
      graph_out, "graph",
      "hypercube dim 16 (65536 nodes, 524288 edges), latencies "
      "uniform[1,8]; 1M mixed find_edge probes, full adjacency sweep",
      repeats, graph_baselines, graph_cases);
  if (graph_rc != 0) return graph_rc;

  return write_store_json(store_out, std::max(repeats, 3), store_qps);
}
