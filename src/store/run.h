#pragma once
// One run description and one executor for `latgossip run` and `serve`.
// Both front ends parse their input into a GraphSpec (the graph-family
// table: every family makes the same generator calls, in the same
// order, on one Rng seeded from the spec) and a RunSpec (one
// validation, one protocol dispatch, one store-cell identity). A single
// trial is a batch of one: trial t is seeded with trial_seed(seed, t)
// whether or not a store is bound, so a store never changes the answer.
// Side outputs are produced only when the RunSinks ask for them.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/export.h"
#include "sim/dynamics_spec.h"
#include "sim/freshness.h"
#include "sim/parallel.h"
#include "store/cached_trials.h"

namespace latgossip {

class ExperimentStore;

enum class LatencyModel {
  kUnit,      ///< the builder default of 1
  kUniform,   ///< lat_lo on every edge
  kRange,     ///< uniform in [lat_lo, lat_hi]
  kTwoLevel,  ///< lat_lo with probability lat_p_fast, else lat_hi
};

/// A generated graph. Fields the family does not read are ignored.
struct GraphSpec {
  std::string family;  ///< clique cycle path star ring torus grid er
                       ///< regular ws ba ring_cliques dumbbell thm8
  std::size_t n = 0;
  std::size_t rows = 0, cols = 0;     ///< grid, torus
  double p = 0.0;                     ///< er
  std::size_t d = 0;                  ///< regular
  std::size_t k = 0;                  ///< ws
  double beta = 0.0;                  ///< ws
  std::size_t attach = 0;             ///< ba
  std::size_t cliques = 0, size = 0;  ///< ring_cliques; size: dumbbell too
  Latency bridge = 1;                 ///< ring_cliques, dumbbell
  double alpha = 0.0;                 ///< thm8
  Latency ell = 0;                    ///< thm8
  bool streaming = false;  ///< er/regular: seeded samplers; ba: own Rng
  std::uint64_t seed = 1;
  LatencyModel latency = LatencyModel::kUnit;
  Latency lat_lo = 1;
  Latency lat_hi = 1;
  double lat_p_fast = 0.5;
};

/// Throws std::invalid_argument for an unknown family.
WeightedGraph generate_graph(const GraphSpec& spec);

/// A GraphSpec size field (n, rows, d, ...) as its parser read it,
/// signed; throws std::invalid_argument naming `field` if it is negative
/// instead of letting the cast to size_t wrap it.
std::size_t spec_size(const char* field, std::int64_t value);

struct RunSpec {
  std::string protocol = "pushpull";  ///< pushpull flooding eid tk unified
  DynamicSpec dynamics;               ///< pushpull and flooding only
  // Kept at the parsers' width so validate_run() sees them unnarrowed.
  std::int64_t source = 0;
  std::int64_t trials = 1;
  /// A single-phase run's cap; a composite's budget over all its
  /// internal runs (each unified branch gets all of it).
  Round max_rounds = 5'000'000;
  std::size_t threads = 0;  ///< 0 = default_concurrency()
  std::uint64_t seed = 1;
  bool known_latencies = false;  ///< unified only
};

/// The one validation, against a graph of `num_nodes` nodes: a known
/// protocol, trials in [1, 10^6], source < num_nodes, max_rounds >= 0,
/// a scenario only on a single-phase protocol. Throws
/// std::invalid_argument with the message both front ends show.
void validate_run(const RunSpec& spec, std::size_t num_nodes);

/// Protocol name in manifests and store keys: the protocol, except
/// "flooding/dense" for flooding.
std::string protocol_label(const RunSpec& spec);

struct RunSinks {
  ExperimentStore* store = nullptr;  ///< hits skip the trial body
  /// graph_digest() of the run's graph, for a caller that keeps it next
  /// to a cached graph; execute() hashes the graph when it is unset.
  std::optional<std::uint64_t> graph_digest;
  bool store_verify = false;         ///< recompute every hit and compare
  /// One event-stream file per trial (Chrome trace JSON for ".json",
  /// else activation CSV). A hit has no event stream, so with a store
  /// hits are recomputed as under store_verify.
  std::string trace_path;
  std::string manifest_path;  ///< one JSONL record per trial
  RunInfo manifest_info;      ///< tool and graph source; execute adds the rest
  /// Per-trial informed curves (pushpull). With a store the batch uses
  /// "curve" cells, whose hits replay the curve from record meta.
  bool curves = false;
  bool freshness = false;  ///< node-age stats (pushpull, flooding)
};

/// Side outputs are indexed by trial and sized only when asked for (or,
/// for winners, when the protocol is unified); a store hit leaves its
/// freshness and winner slots empty.
struct RunOutcome {
  TrialAggregate agg;
  StoredBatchStats store;
  bool recorded = false;         ///< trials stamped event fingerprints
  bool recomputed_hits = false;  ///< store hits were recomputed + verified
  std::vector<FreshnessStats> freshness;
  std::vector<std::vector<std::uint32_t>> curves;
  std::vector<std::size_t> trace_events;
  std::vector<std::string> winners;  ///< unified: "push-pull", "spanner", ""
};

/// Validate, then run the trials through run_trials, or through
/// run_trials_stored when a store is bound. Trials record their event
/// stream whenever a store, a trace or a manifest is attached.
RunOutcome execute(const RunSpec& spec, const WeightedGraph& g,
                   const RunSinks& sinks);

/// `base` for a one-trial run, else ".t<trial>" before the extension.
std::string trial_trace_path(const std::string& base, std::size_t trial,
                             std::size_t trials);

/// Per-round min/mean/max of informed counts across trials; a trial
/// that finished early holds at its final count.
struct SpreadEnvelope {
  std::vector<std::uint64_t> min, max, sum;
  std::size_t trials = 0;

  std::size_t rounds() const noexcept { return sum.size(); }
  double mean(std::size_t r) const noexcept {
    return static_cast<double>(sum[r]) / static_cast<double>(trials);
  }
};
SpreadEnvelope spread_envelope(
    const std::vector<std::vector<std::uint32_t>>& curves);

/// Replace `path` with `body`. Throws std::runtime_error.
void write_text_file(const std::string& path, const std::string& body);

}  // namespace latgossip
