// perfbench driver: generates the seeded inputs of one workload and runs
// it, timing every call into the library from outside.
//
//   perfbench_driver gen WORKLOAD SEED DIR [--tiny]
//   perfbench_driver run WORKLOAD SEED DIR SECONDS TRACE LATGOSSIP [--tiny]
//
// `gen` writes the workload's inputs into DIR (graph files from the
// benchmark's own generators, the pre-filled store log) and prints a
// JSON object describing them. `run` works inside DIR: set-up, then jobs
// until SECONDS have been measured, then the output checks. It prints
// one JSON object: end-to-end figures, per-layer figures (with TRACE=1),
// exact simulated counts, and the failures found. LATGOSSIP is the CLI
// binary the serve workload starts as its daemon. --tiny shrinks every
// size for the self-test.
//
// With TRACE=1 the driver records a span around each library call
// (name, start, end, parent span, and an op id shared by one job, trial
// or query), keeps them in memory, derives the per-layer figures from
// them and writes them to DIR/spans.csv at the end. Traced and untraced
// jobs alternate so the same run reports the tracing overhead.

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/push_pull.h"
#include "graph/io.h"
#include "obs/export.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/freshness.h"
#include "sim/oracle.h"
#include "sim/parallel.h"
#include "store/store.h"
#include "store/wire.h"

namespace {

using namespace latgossip;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Clock, statistics, small utilities.

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double since_s(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// CPU time of the whole process (user + system, every thread). The
/// guest kernel leaves out the time the hypervisor holds a vCPU (steal
/// time), which wall time includes.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated quantile (q in [0,1]) of a sample; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The benchmark's own RNG (SplitMix64), so inputs do not change when
/// the library's generators or Rng do.
struct SeedRng {
  std::uint64_t state;
  std::uint64_t next() { return mix64(state++ * 0x9e3779b97f4a7c15ULL); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() {  // uniform in (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
};

/// Peak RSS (VmHWM) of a process in MiB, from /proc; 0 if unreadable.
double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::size_t lines = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    lines += static_cast<std::size_t>(
        std::count(buf, buf + in.gcount(), '\n'));
    if (!in) break;
  }
  return lines;
}

/// Busy-spin every core for `seconds`: the host brings extra cores
/// online only after about a second of load, so parallel timings start
/// after this.
void spin_all_cores(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> sink{0};
  for (unsigned i = 0; i < n; ++i)
    threads.emplace_back([seconds, &sink] {
      const std::int64_t t0 = now_ns();
      std::uint64_t x = 1;
      while (since_s(t0) < seconds)
        for (int k = 0; k < 4096; ++k) x = mix64(x);
      sink += x;
    });
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Spans. One buffer per thread; a span's parent is the enclosing span on
// the same thread, or (for the first span on a pool worker) the span the
// dispatching thread published in `adopt_parent`.

struct Span {
  const char* name;
  std::int64_t id;
  std::int64_t parent;
  std::uint64_t op;
  std::int64_t t0;
  std::int64_t t1;
};

class Tracer {
 public:
  struct Buffer {
    std::int64_t thread_no = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
  };

  std::atomic<bool> on{false};
  std::atomic<std::int64_t> adopt_parent{-1};

  Buffer& buffer() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->thread_no = static_cast<std::int64_t>(buffers_.size() - 1);
      mine->spans.reserve(1 << 16);
    }
    return *mine;
  }

  /// Every finished span, all threads. Call only when no span is open.
  std::vector<Span> all() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const auto& b : buffers_)
      out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer g_tracer;

class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t op) {
    if (!g_tracer.on.load(std::memory_order_relaxed)) return;
    buf_ = &g_tracer.buffer();
    index_ = buf_->spans.size();
    const std::int64_t id =
        (buf_->thread_no << 40) | static_cast<std::int64_t>(index_);
    const std::int64_t parent = buf_->stack.empty()
                                    ? g_tracer.adopt_parent.load()
                                    : buf_->stack.back();
    buf_->spans.push_back(Span{name, id, parent, op, now_ns(), 0});
    buf_->stack.push_back(id);
  }
  ~SpanScope() {
    if (buf_ == nullptr) return;
    buf_->spans[index_].t1 = now_ns();
    buf_->stack.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int64_t id() const {
    return buf_ == nullptr
               ? -1
               : (buf_->thread_no << 40) | static_cast<std::int64_t>(index_);
  }

 private:
  Tracer::Buffer* buf_ = nullptr;
  std::size_t index_ = 0;
};

/// Op ids: the job in the high half, the trial or query in the low half.
std::uint64_t op_id(std::uint64_t job, std::uint64_t item = 0xffffffffu) {
  return (job << 32) | item;
}
std::uint64_t job_of(std::uint64_t op) { return op >> 32; }

double dur_s(const Span& s) { return static_cast<double>(s.t1 - s.t0) * 1e-9; }

/// Per-layer figures derived from the finished spans.
class SpanStats {
 public:
  explicit SpanStats(std::vector<Span> spans) : spans_(std::move(spans)) {}

  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) out.push_back(dur_s(s));
    return out;
  }

  /// Sum of `name` durations per traced job.
  std::vector<double> per_job_sum(const char* name) const {
    std::map<std::uint64_t, double> sums;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, "job") == 0) sums[job_of(s.op)] += 0.0;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) sums[job_of(s.op)] += dur_s(s);
    std::vector<double> out;
    for (const auto& [job, sum] : sums) out.push_back(sum);
    return out;
  }

  /// Share of the traced jobs' wall time covered by their direct child
  /// spans (the layer calls made from the job's own thread).
  double coverage() const {
    std::map<std::int64_t, double> job_wall;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, "job") == 0) job_wall[s.id] = dur_s(s);
    double wall = 0.0, covered = 0.0;
    for (const auto& [id, w] : job_wall) wall += w;
    for (const Span& s : spans_)
      if (job_wall.count(s.parent) != 0) covered += dur_s(s);
    return wall > 0.0 ? covered / wall : 0.0;
  }

  /// Pool figures for each traced job: from the run_trials span and the
  /// trial spans it adopted.
  struct PoolJob {
    double wall = 0, body = 0, dispatch = 0, serial = 0, compute = 0;
  };
  std::vector<PoolJob> pool_jobs() const {
    std::vector<PoolJob> out;
    for (const Span& run : spans_) {
      if (std::strcmp(run.name, "pool.run_trials") != 0) continue;
      std::int64_t first = INT64_MAX, last = INT64_MIN;
      PoolJob p;
      for (const Span& t : spans_) {
        if (t.parent != run.id || std::strcmp(t.name, "pool.trial") != 0)
          continue;
        first = std::min(first, t.t0);
        last = std::max(last, t.t1);
        p.body += dur_s(t);
      }
      if (first == INT64_MAX) continue;
      p.wall = dur_s(run);
      p.dispatch = static_cast<double>(first - run.t0) * 1e-9;
      p.serial = static_cast<double>(run.t1 - last) * 1e-9;
      p.compute = static_cast<double>(last - first) * 1e-9;
      out.push_back(p);
    }
    return out;
  }

  void write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("id,parent,name,op,start_ns,end_ns\n", f);
    for (const Span& s : spans_)
      std::fprintf(f, "%" PRId64 ",%" PRId64 ",%s,%" PRIu64 ",%" PRId64
                      ",%" PRId64 "\n",
                   s.id, s.parent, s.name, s.op, s.t0, s.t1);
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result document: flat name -> number maps plus failure notes.

struct Report {
  std::map<std::string, double> e2e;     ///< end-to-end (untraced jobs)
  std::map<std::string, double> layers;  ///< per-layer (traced run only)
  std::map<std::string, double> counts;  ///< exact simulated counts
  std::map<std::string, double> inputs;
  std::map<std::string, std::vector<double>> samples;  ///< raw timings
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_map(std::string& out, const char* key,
               const std::map<std::string, double>& m) {
  out += ",\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    out += "\"" + k + "\":" + json_num(v);
  }
  out += '}';
}

void print_report(const Report& r, const std::string& workload) {
  std::string out = "{\"workload\":\"" + workload + "\"";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  print_map(out, "e2e", r.e2e);
  print_map(out, "layers", r.layers);
  print_map(out, "counts", r.counts);
  print_map(out, "inputs", r.inputs);
  out += ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    if (!first) out += ',';
    first = false;
    out += "\"" + k + "\":[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i > 0 ? "," : "") + json_num(v[i]);
    out += ']';
  }
  out += '}';
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + json_escape(r.failures[i]) + "\"";
  }
  out += "],\"build\":{\"type\":\"" PERFBENCH_BUILD_TYPE
         "\",\"flags\":\"" PERFBENCH_BUILD_FLAGS "\"}}";
  std::printf("%s\n", out.c_str());
}

/// Exact counts of a reference SimResult set, plus one digest folding
/// rounds, exchanges, deliveries, payload bits and fingerprints.
struct SimCounts {
  std::uint64_t rounds = 0, exchanges = 0, deliveries = 0, payload_bits = 0,
                max_inflight = 0, useful = 0, fold = 0;

  void add(const SimResult& r) {
    rounds += static_cast<std::uint64_t>(r.rounds);
    exchanges += r.activations;
    deliveries += r.messages_delivered;
    payload_bits += r.payload_bits;
    max_inflight = std::max<std::uint64_t>(max_inflight, r.max_inflight);
    fold_in(r);
  }

  /// Digest only: for check runs that are not part of the counts.
  void fold_in(const SimResult& r) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(r.rounds), std::uint64_t{r.activations},
          std::uint64_t{r.messages_delivered}, std::uint64_t{r.payload_bits},
          r.fingerprint})
      fold = mix64(fold ^ v);
  }

  /// `carried` is the number of rumor ids the deliveries carried; the
  /// useful share is the ids that were new to their receiver.
  void write(Report& rep, std::uint64_t carried) const {
    rep.counts["sim.rounds"] = static_cast<double>(rounds);
    rep.counts["sim.exchanges"] = static_cast<double>(exchanges);
    rep.counts["sim.deliveries"] = static_cast<double>(deliveries);
    rep.counts["sim.payload_bits"] = static_cast<double>(payload_bits);
    rep.counts["sim.max_inflight"] = static_cast<double>(max_inflight);
    rep.counts["sim.useful_delivery_frac"] =
        carried == 0 ? 0.0
                     : static_cast<double>(useful) / static_cast<double>(carried);
    // 52 bits: exact in a JSON double.
    rep.counts["sim.digest"] = static_cast<double>(fold >> 12);
  }
};

// ---------------------------------------------------------------------------
// Seeded inputs. The benchmark's generators, not the library's: the
// inputs stay fixed while the program under test changes.

struct EdgeList {
  std::size_t n = 0;
  std::vector<std::uint32_t> uvl;  ///< u, v, latency triples
  std::size_t edges() const { return uvl.size() / 3; }
};

bool connected(const EdgeList& el) {
  std::vector<std::uint32_t> parent(el.n);
  for (std::size_t i = 0; i < el.n; ++i) parent[i] = static_cast<std::uint32_t>(i);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::size_t components = el.n;
  for (std::size_t e = 0; e < el.edges(); ++e) {
    const std::uint32_t a = find(el.uvl[3 * e]), b = find(el.uvl[3 * e + 1]);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components == 1;
}

/// Union of `cycles` random Hamiltonian cycles: 2*cycles-regular except
/// where two cycles share an edge (the repeat is dropped). Connected by
/// construction.
EdgeList union_of_cycles(std::size_t n, std::size_t cycles, std::uint32_t lat_lo,
                         std::uint32_t lat_hi, std::uint64_t seed) {
  SeedRng rng{seed};
  EdgeList el;
  el.n = n;
  el.uvl.reserve(3 * n * cycles);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * n * cycles);
  std::vector<std::uint32_t> perm(n);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.below(i + 1)]);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t u = perm[i], v = perm[(i + 1) % n];
      const std::uint64_t key = (std::uint64_t{std::min(u, v)} << 32) | std::max(u, v);
      const auto lat = static_cast<std::uint32_t>(lat_lo + rng.below(lat_hi - lat_lo + 1));
      if (!seen.insert(key).second) continue;
      el.uvl.insert(el.uvl.end(), {u, v, lat});
    }
  }
  return el;
}

/// G(n, p) with p = avg_degree/(n-1), by geometric skips over the pair
/// sequence; resampled with a salted seed until connected.
EdgeList erdos_renyi(std::size_t n, double avg_degree, std::uint32_t lat_lo,
                     std::uint32_t lat_hi, std::uint64_t seed) {
  const double p = avg_degree / static_cast<double>(n - 1);
  const double log_q = std::log1p(-p);
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    SeedRng rng{mix64(seed ^ (attempt * 0x632be59bd9b4e019ULL))};
    EdgeList el;
    el.n = n;
    for (std::size_t u = 0; u + 1 < n; ++u) {
      std::size_t v = u;
      while (true) {
        v += 1 + static_cast<std::size_t>(std::floor(std::log(rng.unit()) / log_q));
        if (v >= n) break;
        const auto lat = static_cast<std::uint32_t>(lat_lo + rng.below(lat_hi - lat_lo + 1));
        el.uvl.insert(el.uvl.end(), {static_cast<std::uint32_t>(u),
                                     static_cast<std::uint32_t>(v), lat});
      }
    }
    if (connected(el)) return el;
  }
  throw std::runtime_error("no connected G(n,p) sample in 64 attempts");
}

void write_graph_file(const std::string& path, const EdgeList& el) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "latgossip-graph 1\n%zu %zu\n", el.n, el.edges());
  for (std::size_t e = 0; e < el.edges(); ++e)
    std::fprintf(f, "%u %u %u\n", el.uvl[3 * e], el.uvl[3 * e + 1],
                 el.uvl[3 * e + 2]);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Workload sizes.

struct Sizes {
  // broadcast_file
  std::size_t bcast_n = std::size_t{1} << 13;
  std::size_t bcast_cycles = 4;  // degree 8
  // alltoall_rumors
  std::size_t a2a_n = 2048;
  double a2a_degree = 12.0;
  // sweep_manifest
  std::size_t sweep_n = 256;
  double sweep_degree = 16.0;  // at 8, sweep work varied by 12% (IQR) across seeds
  std::size_t sweep_trials = 2500;
  // Pool threads of the sweep and the serve daemon: half the 4 vCPUs the
  // benchmark was sized on, so the rest of the host does not stall a
  // worker (at 4 the fastest sweep spread twice as widely across runs).
  std::size_t threads = 2;
  std::size_t oracle_samples = 8;
  // serve_mix
  std::size_t prefill_records = 200000;
  std::size_t serve_n = 512;
  std::size_t cell_trials = 8;
  std::size_t block_queries = 500;
  std::size_t exact_prefix = 2000;  // queries whose counts are exact
  std::uint64_t miss_one_in = 20;
  // set-up repetitions (the fastest is reported); the batch workloads
  // load their graph this often before the jobs and again after them
  std::size_t setup_reps_bcast = 40;
  std::size_t setup_reps_serve = 4;
  std::size_t setup_reps_small = 40;
  double warmup_s = 2.0;

  static Sizes tiny() {
    Sizes s;
    s.bcast_n = 1024;
    s.a2a_n = 256;
    s.sweep_trials = 200;
    s.prefill_records = 2000;
    s.serve_n = 64;
    s.block_queries = 40;
    s.exact_prefix = 100;
    s.setup_reps_small = 3;
    s.warmup_s = 0.2;
    return s;
  }
};

constexpr std::uint32_t kLatLo = 1, kLatHi = 8;
constexpr Round kMaxRounds = 5'000'000;

/// Sub-seeds for the inputs and protocol randomness of one workload run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  return mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

int cmd_gen(const std::string& workload, std::uint64_t seed, const Sizes& sz) {
  Report rep;
  auto graph_input = [&](const char* file, const EdgeList& el) {
    write_graph_file(file, el);
    rep.inputs[std::string(file) + ".bytes"] = static_cast<double>(file_bytes(file));
    rep.inputs[std::string(file) + ".nodes"] = static_cast<double>(el.n);
    rep.inputs[std::string(file) + ".edges"] = static_cast<double>(el.edges());
  };
  if (workload == "broadcast_file") {
    graph_input("graph.txt", union_of_cycles(sz.bcast_n, sz.bcast_cycles, kLatLo,
                                             kLatHi, sub_seed(seed, 1)));
  } else if (workload == "alltoall_rumors") {
    graph_input("graph.txt", erdos_renyi(sz.a2a_n, sz.a2a_degree, kLatLo, kLatHi,
                                         sub_seed(seed, 1)));
  } else if (workload == "sweep_manifest") {
    graph_input("graph.txt", erdos_renyi(sz.sweep_n, sz.sweep_degree, kLatLo,
                                         kLatHi, sub_seed(seed, 1)));
  } else if (workload == "serve_mix") {
    // Records of cells no query names: random keys, plausible results.
    std::string log_path;
    {
      ExperimentStore store("prefill");
      log_path = store.log_path();
    }
    std::FILE* f = std::fopen(log_path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + log_path);
    SeedRng rng{sub_seed(seed, 3)};
    for (std::size_t i = 0; i < sz.prefill_records; ++i) {
      const StoreKey key{rng.next(), rng.next()};
      StoreRecord rec;
      rec.result.rounds = static_cast<Round>(10 + rng.below(60));
      rec.result.completed = true;
      rec.result.activations = 2000 + rng.below(30000);
      rec.result.messages_delivered = 2 * rec.result.activations;
      rec.result.payload_bits = rec.result.messages_delivered;
      rec.result.max_inflight = 500 + rng.below(3000);
      rec.result.fingerprint = rng.next();
      rec.wall_ms = static_cast<double>(rng.below(5'000'000)) / 1000.0;
      const std::string line = store_record_line(key, rec) + "\n";
      if (std::fwrite(line.data(), 1, line.size(), f) != line.size())
        throw std::runtime_error("cannot write " + log_path);
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + log_path);
    rep.inputs["store.log_bytes"] = static_cast<double>(dir_bytes("prefill"));
    rep.inputs["store.records"] = static_cast<double>(sz.prefill_records);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  print_report(rep, workload);
  return 0;
}

// ---------------------------------------------------------------------------
// Shared pieces of the run phase.

struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string latgossip;
  Sizes sz;
};

/// How a workload times its jobs. Work done inside this process is timed
/// by process CPU time: for one busy thread that is its wall time less
/// the time the hypervisor held the vCPU, which on a shared host slowed
/// whole 15 s runs twofold; for the sweep's pool it is the CPU time all
/// workers spent, and the pool spans give the wall time. Work that waits
/// on another process (the serve daemon) is timed by wall clock.
enum class Timing { kCpu, kWall };

double clock_s(Timing timing) {
  return timing == Timing::kCpu ? process_cpu_s()
                                : static_cast<double>(now_ns()) * 1e-9;
}

/// Job loop: runs `job(j)` until `seconds` of wall time are spent in jobs
/// (at least `min_jobs`). With tracing, even jobs are traced and odd ones
/// are not; returns the untraced and traced job times, by `timing`.
template <typename JobFn>
std::pair<std::vector<double>, std::vector<double>> job_loop(
    const RunConfig& cfg, Timing timing, std::size_t min_jobs, JobFn&& job) {
  std::vector<double> plain, traced;
  double measured = 0.0;
  for (std::size_t j = 0; measured < cfg.seconds || j < min_jobs; ++j) {
    const bool traced_job = cfg.trace && j % 2 == 0;
    g_tracer.on = traced_job;
    const std::int64_t t0 = now_ns();
    const double c0 = clock_s(timing);
    {
      SpanScope span("job", op_id(j));
      job(j);
    }
    const double s = clock_s(timing) - c0;
    measured += since_s(t0);
    g_tracer.on = false;
    (traced_job ? traced : plain).push_back(s);
  }
  return {plain, traced};
}

/// Times `reps` more load_graph calls into the set-up samples and
/// returns the last graph. Each run loads before its jobs and again
/// after them, so the samples span the run; `setup_s` is the fastest,
/// for the reason given at report_jobs. A load runs on the calling
/// thread alone, so it is timed by CPU time (see Timing).
WeightedGraph timed_load(const std::string& path, std::size_t reps,
                         const RunConfig& cfg, Report& rep) {
  std::vector<double>& loads = rep.samples["setup_s"];
  WeightedGraph g;
  g_tracer.on = cfg.trace;
  for (std::size_t i = 0; i < reps; ++i) {
    const double c0 = process_cpu_s();
    {
      SpanScope span("graph.load", op_id(0, static_cast<std::uint64_t>(i)));
      g = load_graph(path);
    }
    loads.push_back(process_cpu_s() - c0);
  }
  g_tracer.on = false;
  rep.e2e["setup_s"] = fastest(loads);
  rep.e2e["setup_p50_s"] = median(loads);
  return g;
}

void finish_trace(const RunConfig& cfg, Report& rep, const SpanStats& st,
                  const std::vector<double>& plain,
                  const std::vector<double>& traced) {
  if (!cfg.trace) return;
  rep.layers["trace.coverage"] = st.coverage();
  rep.layers["trace.overhead_frac"] =
      plain.empty() ? 0.0 : fastest(traced) / fastest(plain) - 1.0;
  const std::vector<double> loads = st.durations("graph.load");
  if (!loads.empty()) {
    rep.layers["graph.load_s"] = median(loads);
    rep.layers["graph.load_mb_per_s"] =
        static_cast<double>(file_bytes("graph.txt")) / 1048576.0 / median(loads);
  }
  st.write_csv("spans.csv");
}

/// `job_s` is the fastest untraced job (min-of-N): contention from other
/// tenants of the host only ever slows a job, and it comes in episodes
/// of seconds, so the floor repeats across runs where the median does
/// not. The median and p90 go to the result file beside the samples.
void report_jobs(Report& rep, const std::vector<double>& plain,
                 const std::vector<double>& traced) {
  const std::vector<double>& jobs = plain.empty() ? traced : plain;
  rep.e2e["job_s"] = fastest(jobs);
  rep.e2e["job_p50_s"] = median(jobs);
  rep.e2e["job_p90_s"] = quantile(jobs, 0.9);
  rep.samples["job_s"] = plain;
  rep.samples["traced_job_s"] = traced;
}

/// Every job must reproduce the reference result exactly.
void check_same(Report& rep, const char* what, std::size_t j,
                const SimResult& got, const SimResult& ref) {
  if (!(got == ref))
    rep.fail(std::string(what) + " job " + std::to_string(j) +
             " differs from job 0");
}

/// A recorded run of `engine_proto` on the engine and of `oracle_proto`
/// (built identically) on the reference oracle; each result carries its
/// event fingerprint.
template <typename P>
std::pair<SimResult, SimResult> recorded_pair(const WeightedGraph& g,
                                              P engine_proto, P oracle_proto) {
  SimResult sides[2];
  for (int side = 0; side < 2; ++side) {
    EventRecorder recorder;
    SimOptions opts;
    opts.max_rounds = kMaxRounds;
    opts.recorder = &recorder;
    sides[side] = side == 0 ? run_gossip(g, engine_proto, opts)
                            : run_gossip_oracle(g, oracle_proto, opts);
    sides[side].fingerprint = recorder.fingerprint();
  }
  return {sides[0], sides[1]};
}

/// Per-layer figures of the two single-run workloads, from their spans.
/// `deliveries` and `payload_bits` are those of one job.
void single_run_layers(const RunConfig& cfg, Report& rep,
                       const std::vector<double>& plain,
                       const std::vector<double>& traced, std::uint64_t deliveries,
                       std::uint64_t payload_bits) {
  const SpanStats st(g_tracer.all());
  const double gossip = median(st.per_job_sum("sim.run_gossip"));
  rep.layers["core.proto_init_s"] = median(st.per_job_sum("core.proto_init"));
  rep.layers["sim.run_gossip_s"] = gossip;
  rep.layers["sim.ns_per_delivery"] =
      gossip * 1e9 / static_cast<double>(deliveries);
  rep.layers["sim.payload_gbit_per_s"] =
      static_cast<double>(payload_bits) / gossip * 1e-9;
  finish_trace(cfg, rep, st, plain, traced);
}

// ---------------------------------------------------------------------------
// broadcast_file: push-pull broadcasts on the hook-free engine path, each
// with a fresh workspace like a one-shot `latgossip run`. One job is one
// broadcast from each of kBroadcastSources sources spread over the ids,
// each with its own protocol seed: a single broadcast's round count
// varies by a few rounds from seed to seed, the sum over eight much less.

constexpr std::size_t kBroadcastSources = 8;

void run_broadcast(const RunConfig& cfg, Report& rep) {
  const WeightedGraph g = timed_load("graph.txt", cfg.sz.setup_reps_bcast, cfg, rep);
  const std::size_t n = g.num_nodes();
  NodeId sources[kBroadcastSources];
  std::vector<Rng> rngs;
  for (std::size_t k = 0; k < kBroadcastSources; ++k) {
    sources[k] = static_cast<NodeId>(k * n / kBroadcastSources);
    rngs.emplace_back(sub_seed(cfg.seed, 10 + k));
  }
  std::vector<SimResult> refs;

  auto [plain, traced] = job_loop(cfg, Timing::kCpu, cfg.trace ? 2 : 1, [&](std::size_t j) {
    const std::uint64_t op = op_id(j);
    for (std::size_t k = 0; k < kBroadcastSources; ++k) {
      TrialWorkspace ws;
      SimOptions opts;
      opts.max_rounds = kMaxRounds;
      opts.workspace = &ws;
      NetworkView view(g, false);
      std::optional<PushPullBroadcast> proto;
      {
        SpanScope span("core.proto_init", op);
        proto.emplace(view, sources[k], rngs[k]);
      }
      SimResult r;
      {
        SpanScope span("sim.run_gossip", op);
        r = run_gossip(g, *proto, opts);
      }
      ++rep.attempted;
      std::size_t informed = 0;
      for (NodeId v = 0; v < n; ++v) informed += proto->informed(v) ? 1 : 0;
      if (!r.completed || informed != n)
        rep.fail("broadcast job " + std::to_string(j) + " left nodes uninformed");
      if (refs.size() == k) refs.push_back(r);
      check_same(rep, "broadcast", j, r, refs[k]);
    }
  });

  rep.e2e["peak_rss_mb"] = vm_hwm_mb("self");  // before the checks run
  timed_load("graph.txt", cfg.sz.setup_reps_bcast, cfg, rep);

  // Recorded engine run vs oracle for every source's seed: SimResult and
  // event fingerprint must both match the timed jobs'.
  SimCounts counts;
  std::uint64_t job_deliveries = 0, job_payload_bits = 0;
  for (std::size_t k = 0; k < kBroadcastSources; ++k) {
    const PushPullBroadcast proto(NetworkView(g, false), sources[k], rngs[k]);
    const auto [engine, oracle] = recorded_pair(g, proto, proto);
    SimResult stamped = refs[k];
    stamped.fingerprint = engine.fingerprint;
    if (!(engine == oracle) || !(engine == stamped))
      rep.fail("broadcast: engine, recorded engine and oracle disagree");
    counts.add(stamped);
    counts.useful += n - 1;
    job_deliveries += refs[k].messages_delivered;
    job_payload_bits += refs[k].payload_bits;
  }
  counts.write(rep, job_deliveries);

  report_jobs(rep, plain, traced);
  if (cfg.trace)
    single_run_layers(cfg, rep, plain, traced, job_deliveries, job_payload_bits);
}

// ---------------------------------------------------------------------------
// alltoall_rumors: all-to-all push-pull with dense copy-on-write rumor
// sets, own-id start. One job is one run for each of kGossipSeeds
// protocol seeds, for the reason given at kBroadcastSources.

constexpr std::size_t kGossipSeeds = 4;

void run_alltoall(const RunConfig& cfg, Report& rep) {
  const WeightedGraph g = timed_load("graph.txt", cfg.sz.setup_reps_small, cfg, rep);
  const std::size_t n = g.num_nodes();
  std::vector<Rng> rngs;
  for (std::size_t k = 0; k < kGossipSeeds; ++k)
    rngs.emplace_back(sub_seed(cfg.seed, 20 + k));
  auto make = [&](std::size_t k) {
    return PushPullGossip(NetworkView(g, false), GossipGoal::kAllToAll, 0,
                          PushPullGossip::own_id_rumors(n), rngs[k]);
  };
  std::vector<SimResult> refs;

  auto [plain, traced] = job_loop(cfg, Timing::kCpu, cfg.trace ? 4 : 3, [&](std::size_t j) {
    const std::uint64_t op = op_id(j);
    for (std::size_t k = 0; k < kGossipSeeds; ++k) {
      TrialWorkspace ws;
      SimOptions opts;
      opts.max_rounds = kMaxRounds;
      opts.workspace = &ws;
      std::optional<PushPullGossip> proto;
      {
        SpanScope span("core.proto_init", op);
        proto.emplace(NetworkView(g, false), GossipGoal::kAllToAll, 0,
                      PushPullGossip::own_id_rumors(n), rngs[k]);
      }
      SimResult r;
      {
        SpanScope span("sim.run_gossip", op);
        r = run_gossip(g, *proto, opts);
      }
      ++rep.attempted;
      if (!r.completed || !proto->done(r.rounds))
        rep.fail("all-to-all job " + std::to_string(j) + " did not finish");
      if (refs.size() == k) refs.push_back(r);
      check_same(rep, "all-to-all", j, r, refs[k]);
    }
  });

  rep.e2e["peak_rss_mb"] = vm_hwm_mb("self");  // before the checks run
  timed_load("graph.txt", cfg.sz.setup_reps_small, cfg, rep);

  // Recorded engine run vs oracle for every seed: SimResult and event
  // fingerprint must both match the timed jobs'.
  SimCounts counts;
  std::uint64_t job_deliveries = 0, job_payload_bits = 0;
  for (std::size_t k = 0; k < kGossipSeeds; ++k) {
    const auto [engine, oracle] = recorded_pair(g, make(k), make(k));
    SimResult stamped = refs[k];
    stamped.fingerprint = engine.fingerprint;
    if (!(engine == oracle) || !(engine == stamped))
      rep.fail("all-to-all: engine, recorded engine and oracle disagree");
    counts.add(stamped);
    counts.useful += static_cast<std::uint64_t>(n) * (n - 1);
    job_deliveries += refs[k].messages_delivered;
    job_payload_bits += refs[k].payload_bits;
  }
  counts.write(rep, job_payload_bits / 32);

  report_jobs(rep, plain, traced);
  if (cfg.trace)
    single_run_layers(cfg, rep, plain, traced, job_deliveries, job_payload_bits);
}

// ---------------------------------------------------------------------------
// sweep_manifest: `latgossip run --trials=N --threads=2 --manifest=FILE`
// built from the calls cmd_run makes, with the per-worker protocol slot
// the serve path uses.

void run_sweep(const RunConfig& cfg, Report& rep) {
  spin_all_cores(cfg.sz.warmup_s);
  const WeightedGraph g = timed_load("graph.txt", cfg.sz.setup_reps_small, cfg, rep);
  const std::size_t n = g.num_nodes();
  const std::size_t trials = cfg.sz.sweep_trials;
  const std::uint64_t batch_seed = sub_seed(cfg.seed, 30);
  const std::string manifest_path = "manifest.jsonl";

  std::vector<std::string> snapshots(trials);
  std::vector<std::uint64_t> fps(trials, 0);
  std::vector<std::uint64_t> events(trials, 0);
  std::vector<char> trial_ok(trials, 0);
  std::uint64_t current_job = 0;

  const TrialWsFn trial = [&](std::size_t t, Rng rng,
                              TrialWorkspace& ws) -> SimResult {
    const std::uint64_t op = op_id(current_job, t);
    SpanScope trial_span("pool.trial", op);
    thread_local EventRecorder recorder;
    recorder.clear();
    MetricsRegistry metrics;
    SimOptions opts;
    opts.max_rounds = kMaxRounds;
    opts.workspace = &ws;
    opts.recorder = &recorder;
    const NetworkView view(g, false);
    PushPullBroadcast* proto = nullptr;
    {
      SpanScope span("core.reset", op);
      proto = &ws.slot<PushPullBroadcast>(view, NodeId{0}, rng);
      proto->reset(view, 0, rng);
    }
    SimResult result;
    {
      SpanScope span("sim.run_gossip", op);
      result = run_gossip(g, *proto, opts);
    }
    trial_ok[t] = result.completed && proto->done(result.rounds);
    const FreshnessStats fresh = freshness_of(*proto, n, result.rounds);
    {
      SpanScope span("obs.fingerprint", op);
      result.fingerprint = recorder.fingerprint();
    }
    {
      SpanScope span("obs.record_metrics", op);
      record_sim_result(metrics, result);
      record_event_histograms(metrics, recorder);
      record_freshness(metrics, fresh);
    }
    {
      SpanScope span("obs.metrics_json", op);
      snapshots[t] = metrics_json(metrics);
    }
    fps[t] = result.fingerprint;
    events[t] = recorder.size();
    return result;
  };

  ManifestSpec manifest;
  manifest.path = manifest_path;
  manifest.info.tool = "perfbench sweep_manifest";
  manifest.info.protocol = "pushpull";
  manifest.info.graph_source = "graph.txt";
  manifest.info.nodes = n;
  manifest.info.edges = g.num_edges();
  manifest.info.seed = batch_seed;
  manifest.info.threads = cfg.sz.threads;
  manifest.metrics_json_snapshot = [&](std::size_t t) { return snapshots[t]; };

  std::optional<TrialAggregate> ref;
  std::vector<double> manifest_bytes, job_events;
  auto [plain, traced] = job_loop(cfg, Timing::kCpu, cfg.trace ? 2 : 1, [&](std::size_t j) {
    current_job = j;
    std::remove(manifest_path.c_str());
    std::fill(trial_ok.begin(), trial_ok.end(), 0);
    TrialAggregate agg;
    {
      SpanScope span("pool.run_trials", op_id(j));
      g_tracer.adopt_parent = span.id();
      agg = run_trials(trials, cfg.sz.threads, batch_seed, trial, &manifest);
      g_tracer.adopt_parent = -1;
    }
    rep.attempted += trials;
    std::size_t bad = 0;
    std::uint64_t merged = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      merged = fingerprint_merge_digests(merged, fps[t]);
      if (t >= agg.trials.size() || !trial_ok[t] || !agg.trials[t].completed ||
          agg.trials[t].fingerprint != fps[t])
        ++bad;
    }
    for (std::size_t i = 0; i < bad; ++i)
      rep.fail("sweep job " + std::to_string(j) + ": trial incomplete or unrecorded");
    if (merged != agg.fingerprint)
      rep.fail("sweep job " + std::to_string(j) +
               ": aggregate fingerprint is not the merge of the trials'");
    const std::size_t lines = count_lines(manifest_path);
    if (lines != trials)
      rep.fail("sweep job " + std::to_string(j) + ": manifest holds " +
               std::to_string(lines) + " records, want " + std::to_string(trials));
    manifest_bytes.push_back(static_cast<double>(file_bytes(manifest_path)));
    double ev = 0;
    for (std::uint64_t e : events) ev += static_cast<double>(e);
    job_events.push_back(ev);
    if (!ref) {
      ref = std::move(agg);
    } else if (agg.fingerprint != ref->fingerprint ||
               agg.rounds.mean() != ref->rounds.mean() ||
               agg.activations.mean() != ref->activations.mean()) {
      rep.fail("sweep job " + std::to_string(j) + " differs from job 0");
    }
  });

  rep.e2e["peak_rss_mb"] = vm_hwm_mb("self");  // before the checks run
  timed_load("graph.txt", cfg.sz.setup_reps_small, cfg, rep);

  // A seeded sample of trials re-run through the oracle, recorded.
  SeedRng pick{sub_seed(cfg.seed, 31)};
  for (std::size_t k = 0; k < cfg.sz.oracle_samples; ++k) {
    const std::size_t t = pick.below(trials);
    EventRecorder recorder;
    SimOptions opts;
    opts.max_rounds = kMaxRounds;
    opts.recorder = &recorder;
    PushPullBroadcast proto(NetworkView(g, false), 0, Rng(trial_seed(batch_seed, t)));
    SimResult oracle = run_gossip_oracle(g, proto, opts);
    oracle.fingerprint = recorder.fingerprint();
    if (!(oracle == ref->trials[t]))
      rep.fail("sweep trial " + std::to_string(t) + ": engine and oracle disagree");
  }

  SimCounts counts;
  for (const SimResult& r : ref->trials) counts.add(r);
  counts.useful = static_cast<std::uint64_t>(trials) * (n - 1);
  counts.write(rep, counts.deliveries);

  report_jobs(rep, plain, traced);
  if (cfg.trace) {
    const SpanStats st(g_tracer.all());
    const double gossip = median(st.per_job_sum("sim.run_gossip"));
    rep.layers["core.proto_init_s"] = median(st.per_job_sum("core.reset"));
    rep.layers["sim.run_gossip_s"] = gossip;
    rep.layers["sim.ns_per_delivery"] =
        gossip * 1e9 / static_cast<double>(counts.deliveries);
    rep.layers["sim.payload_gbit_per_s"] =
        static_cast<double>(counts.payload_bits) / gossip * 1e-9;
    std::vector<double> wall, body, eff, dispatch, serial;
    for (const SpanStats::PoolJob& p : st.pool_jobs()) {
      wall.push_back(p.wall);
      body.push_back(p.body);
      eff.push_back(p.body / (static_cast<double>(cfg.sz.threads) * p.compute));
      dispatch.push_back(p.dispatch);
      serial.push_back(p.serial);
    }
    rep.layers["pool.wall_s"] = median(wall);
    rep.layers["pool.body_s"] = median(body);
    rep.layers["pool.efficiency"] = median(eff);
    rep.layers["pool.dispatch_s"] = median(dispatch);
    rep.layers["pool.serial_s"] = median(serial);
    rep.layers["pool.trials_per_s"] =
        static_cast<double>(trials) / rep.e2e["job_s"];
    rep.layers["obs.fingerprint_s"] = median(st.per_job_sum("obs.fingerprint"));
    rep.layers["obs.record_metrics_s"] = median(st.per_job_sum("obs.record_metrics"));
    rep.layers["obs.metrics_json_s"] = median(st.per_job_sum("obs.metrics_json"));
    rep.layers["obs.events"] = median(job_events);
    rep.layers["obs.manifest_bytes"] = median(manifest_bytes);
    finish_trace(cfg, rep, st, plain, traced);
  }
}

// ---------------------------------------------------------------------------
// serve_mix: a `latgossip serve --threads=2` daemon over a pre-filled
// store, one client on one connection, closed loop.

/// The daemon process; killed and reaped if still running on scope exit.
class Daemon {
 public:
  Daemon(const std::string& binary, std::size_t threads) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::freopen("daemon.log", "a", stdout);
      const std::string threads_flag = "--threads=" + std::to_string(threads);
      ::execl(binary.c_str(), binary.c_str(), "serve", "--store=store",
              "--socket=serve.sock", threads_flag.c_str(), "--quiet",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      status_ = status;
      return true;
    }
    return false;
  }
  /// Wait for exit; true iff it exited with status 0.
  bool reap() {
    if (pid_ > 0) {
      rusage usage{};
      ::wait4(pid_, &status_, 0, &usage);
      pid_ = -1;
      cpu_s_ = tv_s(usage.ru_utime) + tv_s(usage.ru_stime);
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }
  /// CPU time the daemon used over its life (user + system, every
  /// thread); known once reap() has returned.
  double cpu_s() const { return cpu_s_; }

 private:
  static double tv_s(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  }

  pid_t pid_ = -1;
  int status_ = 0;
  double cpu_s_ = 0.0;
};

int connect_unix(const char* path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request/response over the open connection; "" on a wire failure.
std::string round_trip(int fd, const std::string& request, std::uint64_t op) {
  {
    SpanScope span("wire.write", op);
    if (!write_frame(fd, request)) return "";
  }
  SpanScope span("wire.read", op);
  const std::optional<std::string> response = read_frame(fd);
  return response ? *response : "";
}

/// Spawns the daemon and waits until a ping over a fresh connection is
/// answered. Returns the connection.
int start_daemon(Daemon& d) {
  const std::int64_t t0 = now_ns();
  while (true) {
    const int fd = connect_unix("serve.sock");
    if (fd >= 0) {
      if (round_trip(fd, "{\"op\":\"ping\"}", op_id(0)) ==
          "{\"ok\":true,\"op\":\"ping\"}")
        return fd;
      ::close(fd);
      throw std::runtime_error("daemon answered ping wrongly");
    }
    if (d.exited()) throw std::runtime_error("daemon exited during start-up");
    if (since_s(t0) > 120) throw std::runtime_error("daemon did not start");
    ::usleep(200);
  }
}

bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// A number field of a flat JSON response ("key":123.4), or -1.
double json_field(const std::string& s, const std::string& key) {
  const std::size_t at = s.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtod(s.c_str() + at + key.size() + 3, nullptr);
}

void run_serve(const RunConfig& cfg, Report& rep) {
  const Sizes& sz = cfg.sz;
  // Fresh copy of the pre-filled store; the daemon appends to it.
  std::filesystem::remove_all("store");
  std::filesystem::copy("prefill", "store", std::filesystem::copy_options::recursive);

  // store layer in-process: open (= replay) the copy of the pre-filled
  // log before the daemon owns it.
  if (cfg.trace) {
    std::vector<double> opens;
    std::size_t records = 0;
    for (std::size_t i = 0; i < sz.setup_reps_serve; ++i) {
      const std::int64_t t0 = now_ns();
      ExperimentStore store("store");
      opens.push_back(since_s(t0));
      records = store.size();
    }
    rep.layers["store.open_s"] = median(opens);
    rep.layers["store.replay_records"] = static_cast<double>(records);
  }

  // Set-up: spawn + replay + first ping answered, several times. Every
  // daemon but the last is shut down after its pings, and its CPU time,
  // which leaves out time stolen from the vCPUs (see Timing), is a set-up
  // sample; the wall times go to the result file.
  std::vector<double> setups, setup_walls, pings;
  std::unique_ptr<Daemon> daemon;
  int fd = -1;
  for (std::size_t i = 0; i < sz.setup_reps_serve; ++i) {
    const std::int64_t t0 = now_ns();
    daemon = std::make_unique<Daemon>(cfg.latgossip, sz.threads);
    fd = start_daemon(*daemon);
    setup_walls.push_back(since_s(t0));
    for (int k = 0; k < 50; ++k) {
      const std::int64_t p0 = now_ns();
      if (round_trip(fd, "{\"op\":\"ping\"}", op_id(0)).empty())
        throw std::runtime_error("ping failed");
      pings.push_back(since_s(p0) * 1e6);
    }
    if (i + 1 == sz.setup_reps_serve) break;
    round_trip(fd, "{\"op\":\"shutdown\"}", op_id(0));
    ::close(fd);
    if (!daemon->reap()) throw std::runtime_error("daemon exited uncleanly");
    setups.push_back(daemon->cpu_s());
  }
  rep.e2e["setup_s"] = fastest(setups);
  rep.e2e["setup_p50_s"] = median(setups);
  rep.samples["setup_s"] = setups;
  rep.samples["setup_wall_s"] = setup_walls;

  // Seeded closed loop: one query in `miss_one_in` names a new cell (a
  // miss), the rest repeat a seeded choice of earlier cell (a hit).
  SeedRng mix{sub_seed(cfg.seed, 40)};
  const std::uint64_t graph_seed = sub_seed(cfg.seed, 41) % 1000000;
  char graph_spec[200];
  std::snprintf(graph_spec, sizeof graph_spec,
                "{\"family\":\"er\",\"n\":%zu,\"p\":%.6f,\"seed\":%" PRIu64
                ",\"lat\":\"range\",\"lat_lo\":%u,\"lat_hi\":%u}",
                sz.serve_n, 8.0 / static_cast<double>(sz.serve_n - 1),
                graph_seed, kLatLo, kLatHi);
  auto request = [&](std::size_t cell) {
    return std::string("{\"op\":\"completion_time\",\"graph\":") + graph_spec +
           ",\"proto\":\"pushpull\",\"seed\":" +
           std::to_string(sub_seed(cfg.seed, 1000 + cell) % 1000000000) +
           ",\"trials\":" + std::to_string(sz.cell_trials) + "}";
  };
  const std::string trials_s = std::to_string(sz.cell_trials);
  const std::string hit_tail = ",\"store\":{\"hits\":" + trials_s + ",\"misses\":0}}";
  const std::string miss_tail = ",\"store\":{\"hits\":0,\"misses\":" + trials_s + "}}";
  std::vector<std::string> cell_result;  // miss payload minus the store block

  spin_all_cores(sz.warmup_s);

  std::vector<double> all_ms;
  std::size_t queries = 0, prefix_hits = 0, prefix_misses = 0;
  std::uint64_t log_at_start = dir_bytes("store"), log_at_prefix = 0;
  SimCounts counts;
  std::uint64_t carried = 0;
  auto [plain, traced] = job_loop(cfg, Timing::kWall, cfg.trace ? 2 : 1, [&](std::size_t j) {
    // Exactly block/miss_one_in misses per block, at seeded positions,
    // so every block does the same mix of work; the first query of the
    // run is a miss (there is no earlier cell to repeat).
    std::vector<char> miss_at(sz.block_queries, 0);
    const std::size_t block_misses = sz.block_queries / sz.miss_one_in;
    std::fill_n(miss_at.begin(), block_misses, 1);
    for (std::size_t i = sz.block_queries - 1; i > 0; --i)
      std::swap(miss_at[i], miss_at[mix.below(i + 1)]);
    if (j == 0 && miss_at[0] == 0) {
      *std::find(miss_at.begin(), miss_at.end(), 1) = 0;
      miss_at[0] = 1;
    }
    for (std::size_t k = 0; k < sz.block_queries; ++k, ++queries) {
      const bool miss = miss_at[k] != 0;
      const std::size_t cell = miss ? cell_result.size() : mix.below(cell_result.size());
      const std::uint64_t op = op_id(j, queries);
      const std::int64_t t0 = now_ns();
      std::string resp;
      {
        SpanScope span(miss ? "serve.miss" : "serve.hit", op);
        resp = round_trip(fd, request(cell), op);
      }
      const double ms = since_s(t0) * 1e3;
      all_ms.push_back(ms);
      ++rep.attempted;
      if (resp.rfind("{\"ok\":true,", 0) != 0) {
        rep.fail("query " + std::to_string(queries) + " failed: " + resp.substr(0, 120));
        if (miss) cell_result.push_back("");
        continue;
      }
      if (miss) {
        if (!ends_with(resp, miss_tail)) rep.fail("new cell was not a full miss");
        cell_result.push_back(resp.substr(0, resp.size() - miss_tail.size()));
      } else if (resp != cell_result[cell] + hit_tail) {
        rep.fail("hit payload differs from its cell's miss payload");
      }
      if (queries < sz.exact_prefix) {
        (miss ? prefix_misses : prefix_hits) += 1;
        if (miss) {
          const double t = static_cast<double>(sz.cell_trials);
          SimResult r;
          r.rounds = static_cast<Round>(std::llround(json_field(resp, "rounds_mean") * t));
          r.completed = json_field(resp, "completed") == t;
          r.activations = static_cast<std::size_t>(std::llround(json_field(resp, "activations_mean") * t));
          r.messages_delivered = static_cast<std::size_t>(std::llround(json_field(resp, "messages_mean") * t));
          const std::size_t fp_at = resp.find("\"fingerprint\":\"0x");
          r.fingerprint = fp_at == std::string::npos
                              ? 0
                              : std::strtoull(resp.c_str() + fp_at + 17, nullptr, 16);
          if (!r.completed) rep.fail("a served cell did not complete every trial");
          counts.add(r);
          counts.useful += static_cast<std::uint64_t>(sz.cell_trials) * (sz.serve_n - 1);
          carried += r.messages_delivered;
        }
        if (queries + 1 == sz.exact_prefix) log_at_prefix = dir_bytes("store");
      }
    }
  });
  if (queries < sz.exact_prefix)
    rep.fail("fewer queries than the exact-count prefix");

  const std::string stats = round_trip(fd, "{\"op\":\"stats\"}", op_id(0));
  if (stats.rfind("{\"ok\":true,", 0) != 0) rep.fail("stats query failed");
  rep.e2e["peak_rss_mb"] = vm_hwm_mb(std::to_string(daemon->pid()));
  round_trip(fd, "{\"op\":\"shutdown\"}", op_id(0));
  ::close(fd);
  if (!daemon->reap()) rep.fail("daemon exited uncleanly");

  counts.write(rep, carried);
  rep.counts["store.hit_ratio"] =
      static_cast<double>(prefix_hits) / static_cast<double>(prefix_hits + prefix_misses);
  // Not exact: records carry their compute time, whose digits vary.
  rep.layers["store.log_bytes_per_insert"] =
      prefix_misses == 0 ? 0.0
                         : static_cast<double>(log_at_prefix - log_at_start) /
                               static_cast<double>(prefix_misses * sz.cell_trials);

  report_jobs(rep, plain, traced);
  if (cfg.trace) {
    const SpanStats st(g_tracer.all());
    const std::vector<double> hits = st.durations("serve.hit");
    const std::vector<double> misses = st.durations("serve.miss");
    rep.layers["wire.ping_us_p50"] = median(pings);
    rep.layers["serve.hit_ms_p50"] = quantile(hits, 0.5) * 1e3;
    rep.layers["serve.hit_ms_p99"] = quantile(hits, 0.99) * 1e3;
    rep.layers["serve.miss_ms_p50"] = quantile(misses, 0.5) * 1e3;
    rep.layers["serve.miss_ms_p90"] = quantile(misses, 0.9) * 1e3;
    rep.layers["serve.queries_per_s"] =
        static_cast<double>(sz.block_queries) / rep.e2e["job_s"];
    rep.layers["serve.query_p50_ms"] = quantile(all_ms, 0.5);
    rep.layers["serve.query_p99_ms"] = quantile(all_ms, 0.99);
    finish_trace(cfg, rep, st, plain, traced);
  }
}

int cmd_run(const std::string& workload, const RunConfig& cfg) {
  Report rep;
  if (workload == "broadcast_file") {
    run_broadcast(cfg, rep);
  } else if (workload == "alltoall_rumors") {
    run_alltoall(cfg, rep);
  } else if (workload == "sweep_manifest") {
    run_sweep(cfg, rep);
  } else if (workload == "serve_mix") {
    run_serve(cfg, rep);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  print_report(rep, workload);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const bool tiny = std::find(args.begin(), args.end(), "--tiny") != args.end();
  args.erase(std::remove(args.begin(), args.end(), "--tiny"), args.end());
  try {
    if (args.size() == 4 && args[0] == "gen") {
      if (::chdir(args[3].c_str()) != 0)
        throw std::runtime_error("cannot enter " + args[3]);
      return cmd_gen(args[1], std::stoull(args[2]), tiny ? Sizes::tiny() : Sizes{});
    }
    if (args.size() == 7 && args[0] == "run") {
      RunConfig cfg;
      cfg.seed = std::stoull(args[2]);
      cfg.seconds = std::stod(args[4]);
      cfg.trace = args[5] == "1";
      cfg.latgossip = args[6];
      cfg.sz = tiny ? Sizes::tiny() : Sizes{};
      if (::chdir(args[3].c_str()) != 0)
        throw std::runtime_error("cannot enter " + args[3]);
      return cmd_run(args[1], cfg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_driver gen WORKLOAD SEED DIR [--tiny]\n"
               "       perfbench_driver run WORKLOAD SEED DIR SECONDS TRACE "
               "LATGOSSIP [--tiny]\n");
  return 2;
}
