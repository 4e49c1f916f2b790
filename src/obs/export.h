#pragma once
// Serialization for the observability layer: Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), the legacy activation CSV,
// and JSONL run manifests.
//
// A run manifest is one JSON object per line answering "which binary,
// seed, and graph produced this number": build provenance (git hash,
// compiler, flags), the run configuration (tool, protocol, graph
// generator + params, seed, threads), the per-trial SimResult including
// the event-stream fingerprint, the metrics snapshot (counters,
// histograms, per-phase stats), and wall time. `latgossip run
// --manifest=FILE` and every run_trials() batch given a ManifestSpec
// emit it — see DESIGN.md §5e for the field list.

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/metrics.h"

namespace latgossip {

/// Compile-time build provenance, stamped by src/obs/CMakeLists.txt.
struct BuildInfo {
  const char* git_hash;    ///< short hash, or "unknown" outside a checkout
  const char* compiler;    ///< id + version
  const char* build_type;  ///< CMAKE_BUILD_TYPE
  const char* flags;       ///< effective CXX flags
};
BuildInfo build_info();

/// JSON object literal with the BuildInfo fields (no trailing newline);
/// embedded by every manifest record.
std::string build_info_json();

/// Peak resident-set size of this process in bytes (Linux: VmHWM from
/// /proc/self/status; 0 where unavailable). A high-water mark, not a
/// current reading — it only ever grows, so per-trial deltas in a batch
/// are meaningless but "did the million-node run fit in RAM" is
/// answered exactly. Stamped into every manifest record.
std::size_t peak_rss_bytes();

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

// --- JSON fragments shared by manifests, store records and serve ------
// responses; appended in place (no JSON tree) since they run per trial.

void json_append_u64(std::string& out, std::uint64_t v);
/// `v` with exactly `decimals` digits after the point ("%.*f").
void json_append_fixed(std::string& out, double v, int decimals);
/// An event fingerprint as the quoted string "0x" + 16 hex digits.
void json_append_fingerprint(std::string& out, std::uint64_t fingerprint);
/// The SimResult object manifests and store records embed:
/// {"rounds":…,"completed":…,…,"max_inflight":…,"fingerprint":"0x…"}.
void json_append_sim_result(std::string& out, const SimResult& result);

// --- event stream exports ---------------------------------------------
// Both read the events themselves, so the recorder must keep its log
// (EventLog::kKeep); a folding recorder throws std::logic_error.

/// Chrome trace-event JSON: {"traceEvents": [...]}. Rounds map 1:1 to
/// microsecond timestamps. Deliveries/drops render as complete ("X")
/// events on the receiving node's track spanning [start, completion];
/// activations as instant ("i") events on the initiator's track; phase
/// boundaries as duration ("B"/"E") events on a dedicated phases track
/// timestamped with the metrics virtual clock.
std::string to_chrome_trace_json(const EventRecorder& rec);

/// CSV of activation events: "round,initiator,responder,edge" header
/// + one line per activation (the historical trace format, byte for
/// byte).
std::string activations_to_csv(const EventRecorder& rec);

// --- metrics snapshot -------------------------------------------------

/// JSON object with "counters", "histograms" (non-empty log2 buckets as
/// {"lo": count}), and "phases" (per-phase rounds/messages/bits).
std::string metrics_json(const MetricsRegistry& metrics);

// --- run manifests ----------------------------------------------------

/// Static context shared by every trial of one batch.
struct RunInfo {
  std::string tool;          ///< e.g. "latgossip run"
  std::string protocol;      ///< e.g. "pushpull", "eid"
  std::string graph_source;  ///< generator family or input file
  std::string graph_params;  ///< free-form "n=128,p=0.1"
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint64_t seed = 0;   ///< batch seed
  std::size_t threads = 0;  ///< requested worker threads (0 = hardware)
  /// Worker threads the batch actually ran on, after the
  /// LATGOSSIP_THREADS override, the hardware default, and the
  /// num_trials cap (0 = the producer didn't resolve it). run_trials
  /// stamps this on its manifest copy; "threads":0 alone can't answer
  /// "how parallel was this run".
  std::size_t threads_effective = 0;
  /// Raw LATGOSSIP_THREADS value in the producing environment, empty
  /// when unset — records *why* threads_effective diverged from
  /// threads. Emitted only when set.
  std::string threads_env;
};

/// One JSONL manifest record (single line, no trailing newline).
/// `metrics_json_snapshot` is an already-serialized metrics object (use
/// metrics_json()), or empty to omit the field.
std::string manifest_record(const RunInfo& info, std::size_t trial,
                            std::uint64_t trial_seed, const SimResult& result,
                            double wall_ms,
                            const std::string& metrics_json_snapshot);

}  // namespace latgossip
