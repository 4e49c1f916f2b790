#pragma once
// `latgossip serve` — the query daemon over a content-addressed store.
//
// One process owns one ExperimentStore and answers completion-time,
// spread-curve, and batch-sweep queries from many clients over a Unix
// domain socket (length-prefixed JSON frames, store/wire.h). A query
// names a cell set — generated graph spec, protocol, batch seed, trial
// count — exactly the identity the store keys on; cells already in the
// store are answered from memory, the rest are computed on the shared
// TrialPool and inserted, so the first client to ask pays and everyone
// after reads: many clients, one warm cache, hits and misses timed by
// perfbench's serve_mix workload. The server only parses requests and
// renders responses; graphs and trial batches come from the same
// generate_graph() and execute() as `latgossip run` (store/run.h).
//
// Request ops (one JSON object per frame; see DESIGN.md §5j for the
// full field tables):
//
//   {"op":"ping"}
//   {"op":"stats"}
//   {"op":"completion_time","graph":{…},"proto":"pushpull","seed":S,
//    "trials":T}
//   {"op":"spread_curve","graph":{…},"seed":S,"trials":T}
//   {"op":"sweep","cells":[{completion_time-style cell}, …]}
//   {"op":"shutdown"}
//
// Graph specs are generated server-side ({"family":"er","n":512,
// "p":0.03,"seed":1,"lat":"range","lat_lo":1,"lat_hi":8}) and keyed by
// *content* digest, so a CLI run over a byte-identical graph file
// shares cache entries with the daemon.
//
// Responses: {"ok":true,"op":…,"result":{…},"store":{"hits":…,
// "misses":…}} or {"ok":false,"error":"…"}. The per-query "store"
// block carries that query's hit/miss split — the observable the
// serve-smoke CI leg and the warm/cold bench assert on.
//
// Concurrency model: connections are accepted and served one request
// at a time; parallelism lives inside a request (TrialPool across a
// query's trials), which is the right shape while compute dominates.

#include <cstddef>
#include <string>

namespace latgossip {

class ExperimentStore;
class JsonValue;
struct GraphSpec;

struct ServeOptions {
  std::string store_dir;    ///< required
  std::string socket_path;  ///< required; stale socket files are replaced
  std::size_t threads = 0;  ///< compute threads on miss (0 = default)
  /// Stop after this many requests (0 = run until a shutdown op).
  /// Tests and the bench use it as a safety net.
  std::size_t max_requests = 0;
  bool quiet = false;  ///< suppress the per-request log line on stdout
};

/// Run the daemon until a shutdown op, max_requests, or a fatal socket
/// error. Returns 0 on clean shutdown, 1 on fatal error. Throws only
/// for unusable options (empty paths, store that cannot open).
int run_server(const ServeOptions& opts);

/// Handle one already-parsed request against an open store — the
/// transport-free core of the daemon, shared by run_server and the
/// in-process tests/bench. `threads` caps miss-compute parallelism.
/// Sets `*shutdown` when the request was a shutdown op.
std::string handle_request(ExperimentStore& store, const std::string& request,
                           std::size_t threads, bool* shutdown);

/// A request's "graph" object as a GraphSpec, with serve's defaults and
/// its families and latency models (DESIGN.md §5j). Throws
/// std::invalid_argument for anything else.
GraphSpec parse_graph_spec(const JsonValue& spec);

}  // namespace latgossip
