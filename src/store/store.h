#pragma once
// Content-addressed experiment store (ROADMAP item 3).
//
// Maps a StoreKey (store/key.h — canonical hash of graph content,
// protocol, seed, fault plan, model version) to the full outcome of
// that computation: the SimResult including its event-stream
// fingerprint, the compute wall time, and an optional meta payload
// (e.g. a spread curve). Sweeps consult the store before computing a
// cell; `latgossip serve` answers many clients from one warm store.
//
// Layout (exemplar: Nix's libstore, radically simplified — one flat
// log instead of a narinfo/nar split, because values are tiny):
//
//   <dir>/store.v1.log   append-only JSONL, one record per line:
//     {"schema":"latgossip.store.v1","key":"<32 hex>","result":{…},
//      "wall_ms":…,"meta":{…}}
//
// The whole log is replayed into an in-memory index on open, streamed
// one line at a time (never held whole): JsonReader walks each line
// once and parse_store_record writes its fields straight into a
// StoreRecord, building a tree only for a meta object. The index is
// sized from the log's length up front, with room for half as many
// inserts again, so neither replay nor the inserts soon after it
// rehash. Records are ~300 bytes: perfbench serve_mix's 2·10^5-record,
// 57 MiB log opens in 0.21–0.24 s on a 4-vCPU Xeon KVM guest (0.97–
// 1.17 s with the tree-per-line parse before it), so a million cells
// is ~300 MB of log and about a second of replay, fine for the current
// scale; a side index file becomes worthwhile only past that.
//
// Crash safety:
//  * inserts append one complete line with a single fwrite + flush, so
//    a crash can only ever truncate the final record;
//  * replay tolerates exactly that: an unparseable or truncated line is
//    dropped (counted in stats().recovered_records) and every valid
//    record is kept — including valid records *after* a corrupted line,
//    so one damaged sector does not orphan the rest of the log;
//  * when replay found damage, the log is rewritten with only the valid
//    records via temp file + atomic rename (repair-on-open), so damage
//    is paid for once, not re-skipped forever.
//
// Thread safety: lookup/insert/contains/stats are safe to call
// concurrently — TrialPool workers insert cells as they compute them
// (covered by the TSan CI leg). One writer process per store directory;
// concurrent *processes* are out of scope (the serve daemon is the
// multi-client story).

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/metrics.h"
#include "store/key.h"

namespace latgossip {

/// The cached value of one computation.
struct StoreRecord {
  SimResult result;
  double wall_ms = 0.0;   ///< compute time at insert (provenance only)
  std::string meta;       ///< optional JSON object ("" = none)
};

struct StoreStats {
  std::size_t records = 0;            ///< cells in the index
  std::size_t hits = 0;               ///< lookup() found the key
  std::size_t misses = 0;             ///< lookup() did not
  std::size_t inserts = 0;            ///< successful insert() calls
  std::size_t recovered_records = 0;  ///< damaged lines dropped at open
  bool repaired = false;              ///< open() rewrote the log
};

class ExperimentStore {
 public:
  static constexpr std::string_view kSchema = "latgossip.store.v1";

  /// Opens (creating the directory if needed) and replays the log.
  /// Throws std::runtime_error when the directory cannot be created or
  /// the log cannot be opened for append.
  explicit ExperimentStore(const std::string& dir);
  ~ExperimentStore();

  ExperimentStore(const ExperimentStore&) = delete;
  ExperimentStore& operator=(const ExperimentStore&) = delete;

  /// The record for `key`, or nullopt. Counts a hit or a miss.
  std::optional<StoreRecord> lookup(const StoreKey& key);

  /// Presence check without touching the hit/miss counters.
  bool contains(const StoreKey& key) const;

  /// Insert `rec` under `key`: appends to the log and indexes it.
  /// Returns false (and writes nothing) if the key is already present —
  /// first writer wins, which is the right semantics for a
  /// content-addressed store (all writers computed the same value; the
  /// verify path exists to prove it). Throws on I/O failure.
  bool insert(const StoreKey& key, const StoreRecord& rec);

  /// Flush buffered appends to the OS.
  void flush();

  std::size_t size() const;
  StoreStats stats() const;
  const std::string& dir() const noexcept { return dir_; }
  std::string log_path() const;

 private:
  void replay_and_repair();

  mutable std::mutex mutex_;
  std::string dir_;
  std::FILE* log_ = nullptr;
  std::unordered_map<StoreKey, StoreRecord, StoreKeyHash> index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
  std::size_t recovered_ = 0;
  bool repaired_ = false;
};

/// One serialized record line (no trailing newline) — exposed for the
/// server (which embeds results in responses) and tests.
std::string store_record_line(const StoreKey& key, const StoreRecord& rec);

/// Parse one log line. Returns nullopt on any damage: bad JSON, wrong
/// schema, malformed key, a member named twice, or a missing or
/// mistyped result field (rounds and the six counters must be integers
/// in [0, 2^63), completed a boolean, the fingerprint "0x" and 16
/// lowercase hex digits). Unknown members are skipped; wall_ms and meta
/// are optional.
std::optional<std::pair<StoreKey, StoreRecord>> parse_store_record(
    std::string_view line);

}  // namespace latgossip
