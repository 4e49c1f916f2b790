// Tests for the serve daemon: the transport-free handle_request core
// (ping/stats/completion_time/spread_curve/sweep/shutdown, error
// handling) and one end-to-end pass over a real Unix socket via
// run_server + the query_server client.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "store/json.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"

namespace latgossip {
namespace {

std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("latgossip_server_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// Requests answer deterministically, so tests compare raw payloads.
constexpr const char* kCell =
    R"({"op":"completion_time","graph":{"family":"er","n":64,"p":0.1,)"
    R"("seed":2,"lat":"range","lat_lo":1,"lat_hi":8},"proto":"pushpull",)"
    R"("seed":5,"trials":4})";

JsonValue parsed(const std::string& response) {
  std::string err;
  auto doc = json_parse(response, &err);
  EXPECT_TRUE(doc) << err << " in: " << response;
  return doc ? *doc : JsonValue();
}

TEST(StoreServer, PingStatsAndUnknownOp) {
  const std::string dir = scratch_dir("ping");
  ExperimentStore store(dir);
  bool shutdown = true;
  EXPECT_EQ(handle_request(store, R"({"op":"ping"})", 1, &shutdown),
            R"({"ok":true,"op":"ping"})");
  EXPECT_FALSE(shutdown);  // ping must clear a stale flag

  const JsonValue stats =
      parsed(handle_request(store, R"({"op":"stats"})", 1, nullptr));
  EXPECT_TRUE(stats.get_bool("ok", false));
  ASSERT_NE(stats.get("store"), nullptr);
  EXPECT_EQ(stats.get("store")->get_i64("records", -1), 0);

  const JsonValue bad =
      parsed(handle_request(store, R"({"op":"bogus"})", 1, nullptr));
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_NE(bad.get_string("error", "").find("bogus"), std::string::npos);

  const JsonValue notjson = parsed(handle_request(store, "{{{", 1, nullptr));
  EXPECT_FALSE(notjson.get_bool("ok", true));

  handle_request(store, R"({"op":"shutdown"})", 1, &shutdown);
  EXPECT_TRUE(shutdown);
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, CompletionMissThenHitIdenticalPayload) {
  const std::string dir = scratch_dir("completion");
  ExperimentStore store(dir);
  const std::string cold = handle_request(store, kCell, 2, nullptr);
  const std::string warm = handle_request(store, kCell, 2, nullptr);

  const JsonValue c = parsed(cold);
  const JsonValue w = parsed(warm);
  ASSERT_TRUE(c.get_bool("ok", false)) << cold;
  EXPECT_EQ(c.get("store")->get_i64("misses", -1), 4);
  EXPECT_EQ(c.get("store")->get_i64("hits", -1), 0);
  EXPECT_EQ(w.get("store")->get_i64("hits", -1), 4);
  EXPECT_EQ(w.get("store")->get_i64("misses", -1), 0);
  // The result block — counters, means, merged fingerprint — must be
  // byte-identical between the computed and the cached answer.
  EXPECT_EQ(json_serialize(*c.get("result")), json_serialize(*w.get("result")));
  const JsonValue* result = c.get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get_i64("trials", -1), 4);
  EXPECT_EQ(result->get_i64("completed", -1), 4);
  EXPECT_NE(result->get_string("fingerprint", ""), "0x0000000000000000");
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, SpreadCurveComputedAndReplayedFromCache) {
  const std::string dir = scratch_dir("curve");
  ExperimentStore store(dir);
  const std::string req =
      R"({"op":"spread_curve","graph":{"family":"cycle","n":12},)"
      R"("seed":3,"trials":3})";
  const std::string cold = handle_request(store, req, 2, nullptr);
  const std::string warm = handle_request(store, req, 2, nullptr);
  const JsonValue c = parsed(cold);
  ASSERT_TRUE(c.get_bool("ok", false)) << cold;
  EXPECT_EQ(c.get("store")->get_i64("misses", -1), 3);
  // Warm curves come out of cached meta, not recomputation — and match.
  const JsonValue w = parsed(warm);
  EXPECT_EQ(w.get("store")->get_i64("hits", -1), 3);
  EXPECT_EQ(json_serialize(*c.get("result")), json_serialize(*w.get("result")));

  const JsonValue* result = c.get("result");
  const JsonValue* mean = result->get("curve_mean");
  ASSERT_TRUE(mean != nullptr && mean->is_array());
  ASSERT_FALSE(mean->items().empty());
  // A completed broadcast ends with every node informed.
  EXPECT_DOUBLE_EQ(mean->items().back().as_double(), 12.0);
  EXPECT_DOUBLE_EQ(result->get("curve_min")->items().back().as_double(), 12.0);
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, SweepAggregatesCellsAndSharesCache) {
  const std::string dir = scratch_dir("sweep");
  ExperimentStore store(dir);
  const std::string sweep =
      R"({"op":"sweep","cells":[)"
      R"({"graph":{"family":"cycle","n":8},"proto":"pushpull","seed":1,"trials":2},)"
      R"({"graph":{"family":"cycle","n":8},"proto":"pushpull","seed":2,"trials":2},)"
      R"({"graph":{"family":"star","n":9},"proto":"pushpull","seed":1,"trials":2}]})";
  const JsonValue cold = parsed(handle_request(store, sweep, 2, nullptr));
  ASSERT_TRUE(cold.get_bool("ok", false));
  ASSERT_NE(cold.get("results"), nullptr);
  EXPECT_EQ(cold.get("results")->items().size(), 3u);
  EXPECT_EQ(cold.get("store")->get_i64("misses", -1), 6);

  // Re-sweeping skips every previously computed cell.
  const JsonValue warm = parsed(handle_request(store, sweep, 2, nullptr));
  EXPECT_EQ(warm.get("store")->get_i64("hits", -1), 6);
  EXPECT_EQ(warm.get("store")->get_i64("misses", -1), 0);

  // A single-cell query over one of the swept cells also hits: the
  // sweep and the point query share one key space.
  const std::string point =
      R"({"op":"completion_time","graph":{"family":"star","n":9},)"
      R"("proto":"pushpull","seed":1,"trials":2})";
  const JsonValue p = parsed(handle_request(store, point, 2, nullptr));
  EXPECT_EQ(p.get("store")->get_i64("hits", -1), 2);
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, RejectsBadRequests) {
  const std::string dir = scratch_dir("badreq");
  ExperimentStore store(dir);
  for (const char* req : {
           // missing graph
           R"({"op":"completion_time","trials":1})",
           // unknown family
           R"({"op":"completion_time","graph":{"family":"moebius","n":8}})",
           // unknown latency model
           R"({"op":"completion_time","graph":{"family":"cycle","n":8,"lat":"warp"}})",
           // zero trials
           R"({"op":"completion_time","graph":{"family":"cycle","n":8},"trials":0})",
           // source out of range
           R"({"op":"completion_time","graph":{"family":"cycle","n":8},"source":8})",
           // negative round cap
           R"({"op":"completion_time","graph":{"family":"cycle","n":8},"max_rounds":-5})",
           // spread_curve only knows pushpull
           R"({"op":"spread_curve","graph":{"family":"cycle","n":8},"proto":"flooding"})",
           // sweep without cells
           R"({"op":"sweep"})",
           // the counting representation no longer exists
           R"({"op":"completion_time","graph":{"family":"cycle","n":8},"proto":"flooding","rumor_rep":"count"})",
       }) {
    const JsonValue r = parsed(handle_request(store, req, 1, nullptr));
    EXPECT_FALSE(r.get_bool("ok", true)) << req;
    EXPECT_FALSE(r.get_string("error", "").empty()) << req;
  }
  // Errors must not poison the store or the connection: a good request
  // still works afterwards.
  EXPECT_TRUE(parsed(handle_request(store, R"({"op":"ping"})", 1, nullptr))
                  .get_bool("ok", false));
  EXPECT_EQ(store.size(), 0u);
  std::filesystem::remove_all(dir);
}

// A negative size field is rejected before the cast to size_t wraps it,
// with an error that names the field.
TEST(StoreServer, RejectsNegativeSizesByName) {
  const std::string dir = scratch_dir("negsize");
  ExperimentStore store(dir);
  for (const char* field : {"n", "rows", "cols", "d", "attach"}) {
    const std::string req =
        R"({"op":"completion_time","graph":{"family":"regular",")" +
        std::string(field) + R"(":-2}})";
    const JsonValue r = parsed(handle_request(store, req, 1, nullptr));
    EXPECT_FALSE(r.get_bool("ok", true)) << req;
    EXPECT_EQ(r.get_string("error", ""), std::string(field) + " must be >= 0")
        << req;
  }
  EXPECT_EQ(store.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, FloodingCellsKeyOnRumorRep) {
  const std::string dir = scratch_dir("flooding");
  ExperimentStore store(dir);
  const std::string req =
      R"({"op":"completion_time","graph":{"family":"cycle","n":10},)"
      R"("proto":"flooding","seed":4,"trials":2})";
  const JsonValue cold = parsed(handle_request(store, req, 1, nullptr));
  ASSERT_TRUE(cold.get_bool("ok", false));
  const JsonValue warm = parsed(handle_request(store, req, 1, nullptr));
  EXPECT_EQ(warm.get("store")->get_i64("hits", -1), 2);
  EXPECT_EQ(json_serialize(*cold.get("result")),
            json_serialize(*warm.get("result")));
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, EndToEndOverUnixSocket) {
  const std::string dir = scratch_dir("socket");
  { ExperimentStore create(dir); }  // pre-create so the thread can't race
  const std::string socket_path =
      (std::filesystem::temp_directory_path() / "latgossip_test.sock")
          .string();

  ServeOptions opts;
  opts.store_dir = dir;
  opts.socket_path = socket_path;
  opts.threads = 2;
  opts.max_requests = 16;  // safety net if shutdown is lost
  opts.quiet = true;
  std::thread server([&] { EXPECT_EQ(run_server(opts), 0); });

  // The listener may not be up yet; retry connecting briefly.
  std::string ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      ping = query_server(socket_path, R"({"op":"ping"})");
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_EQ(ping, R"({"ok":true,"op":"ping"})");

  const std::string cold = query_server(socket_path, kCell);
  const std::string warm = query_server(socket_path, kCell);
  const JsonValue c = parsed(cold);
  const JsonValue w = parsed(warm);
  ASSERT_TRUE(c.get_bool("ok", false)) << cold;
  EXPECT_EQ(c.get("store")->get_i64("misses", -1), 4);
  EXPECT_EQ(w.get("store")->get_i64("hits", -1), 4);
  EXPECT_EQ(json_serialize(*c.get("result")), json_serialize(*w.get("result")));

  EXPECT_EQ(query_server(socket_path, R"({"op":"shutdown"})"),
            R"({"ok":true,"op":"shutdown"})");
  server.join();
  // Clean shutdown removes the socket file.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  // The daemon's inserts persist: a fresh store sees the 4 cells.
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(StoreServer, ManyConcurrentClientsConsistent) {
  // Stress leg (runs under TSan in CI): N client threads hammer one
  // daemon over the socket with the same deterministic cell. Every
  // response must carry the byte-identical result block, and the
  // per-response hit/miss counters must always cover the full trial
  // count — the store never answers a half-warm cell inconsistently.
  const std::string dir = scratch_dir("stress");
  { ExperimentStore create(dir); }  // pre-create so the thread can't race
  const std::string socket_path =
      (std::filesystem::temp_directory_path() / "latgossip_stress.sock")
          .string();

  ServeOptions opts;
  opts.store_dir = dir;
  opts.socket_path = socket_path;
  opts.threads = 4;
  opts.max_requests = 128;  // safety net if shutdown is lost
  opts.quiet = true;
  std::thread server([&] { EXPECT_EQ(run_server(opts), 0); });

  std::string ping;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      ping = query_server(socket_path, R"({"op":"ping"})");
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_EQ(ping, R"({"ok":true,"op":"ping"})");

  // One cold query fixes the canonical answer; everything after is
  // compared against it byte for byte.
  const std::string canonical =
      json_serialize(*parsed(query_server(socket_path, kCell)).get("result"));

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::vector<std::string> results(kClients * kQueriesPerClient);
  std::vector<long long> hits(kClients * kQueriesPerClient, -1);
  std::vector<long long> misses(kClients * kQueriesPerClient, -1);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int slot = cidx * kQueriesPerClient + q;
        const std::string response = query_server(socket_path, kCell);
        const JsonValue doc = parsed(response);
        if (!doc.get_bool("ok", false) || doc.get("result") == nullptr)
          continue;  // leaves the slot empty; checked below
        results[slot] = json_serialize(*doc.get("result"));
        hits[slot] = doc.get("store")->get_i64("hits", -1);
        misses[slot] = doc.get("store")->get_i64("misses", -1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t slot = 0; slot < results.size(); ++slot) {
    EXPECT_EQ(results[slot], canonical) << "client response " << slot;
    // The cell has 4 trials; each answer accounts for all of them, and
    // after the cold fill everything should be a hit.
    EXPECT_EQ(hits[slot] + misses[slot], 4) << "client response " << slot;
    EXPECT_EQ(misses[slot], 0) << "client response " << slot;
  }

  EXPECT_EQ(query_server(socket_path, R"({"op":"shutdown"})"),
            R"({"ok":true,"op":"shutdown"})");
  server.join();
  // Exactly the 4 cells of the shared key exist, however many clients
  // raced over them.
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), 4u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace latgossip
