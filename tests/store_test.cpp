// Tests for the content-addressed experiment store: JSON round trips,
// canonical key derivation (field-order independence + golden digests),
// hit/miss/insert semantics, the record reader against the tree walk it
// replaced, crash recovery from corrupted/truncated logs, concurrent
// inserts from TrialPool workers, and the run_trials_stored hit/miss
// bit-identity + verify contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/push_pull.h"
#include "graph/generators.h"
#include "graph/latency_models.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/parallel.h"
#include "sim/pool.h"
#include "store/cached_trials.h"
#include "store/json.h"
#include "store/key.h"
#include "store/store.h"

namespace latgossip {
namespace {

// Fresh scratch directory per test (removed up front so a crashed
// previous run can't leak state into this one).
std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("latgossip_store_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

WeightedGraph test_graph() {
  Rng grng(7);
  auto g = make_erdos_renyi(48, 0.15, grng);
  assign_random_uniform_latency(g, 1, 6, grng);
  return g;
}

// ---------------------------------------------------------------------------
// JSON parser / serializer

TEST(StoreJson, ParsesScalarsAndStructure) {
  std::string err;
  const auto doc = json_parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":42}})",
      &err);
  ASSERT_TRUE(doc) << err;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->get_i64("a", -1), 1);
  EXPECT_DOUBLE_EQ(doc->get_double("b", 0), -2.5);
  EXPECT_EQ(doc->get_string("c", ""), "x\ny");
  const JsonValue* d = doc->get("d");
  ASSERT_TRUE(d != nullptr && d->is_array());
  ASSERT_EQ(d->items().size(), 3u);
  EXPECT_TRUE(d->items()[0].as_bool());
  EXPECT_FALSE(d->items()[1].as_bool());
  EXPECT_TRUE(d->items()[2].is_null());
  const JsonValue* e = doc->get("e");
  ASSERT_TRUE(e != nullptr && e->is_object());
  EXPECT_EQ(e->get_i64("f", -1), 42);
  EXPECT_EQ(doc->get("missing"), nullptr);
  EXPECT_EQ(doc->get_i64("missing", -7), -7);
  // A present member of another type is an error naming it, not the
  // default.
  const auto message = [](auto read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { doc->get_i64("b", 0); }), "b must be an integer");
  EXPECT_EQ(message([&] { doc->get_u64("c", 0); }),
            "c must be a nonnegative integer");
  EXPECT_EQ(message([&] { doc->get_double("d", 0); }), "d must be a number");
  EXPECT_EQ(message([&] { doc->get_bool("a", false); }),
            "a must be true or false");
  EXPECT_EQ(message([&] { doc->get_string("e", ""); }), "e must be a string");
  EXPECT_EQ(message([&] { json_parse(R"({"s":-3})")->get_u64("s", 0); }),
            "s must be a nonnegative integer");
}

TEST(StoreJson, ExactInt64RoundTrip) {
  const auto doc = json_parse("[9223372036854775807,-9223372036854775808,0]");
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->items().size(), 3u);
  for (const JsonValue& v : doc->items()) EXPECT_TRUE(v.is_integer());
  EXPECT_EQ(doc->items()[0].as_i64(), INT64_MAX);
  EXPECT_EQ(doc->items()[1].as_i64(), INT64_MIN);
  EXPECT_EQ(json_serialize(*doc),
            "[9223372036854775807,-9223372036854775808,0]");
  // Fractions and exponents are numbers but not exact integers.
  const auto frac = json_parse("[1.5,1e3]");
  ASSERT_TRUE(frac);
  EXPECT_FALSE(frac->items()[0].is_integer());
  EXPECT_FALSE(frac->items()[1].is_integer());
  EXPECT_DOUBLE_EQ(frac->items()[1].as_double(), 1000.0);
}

TEST(StoreJson, StringEscapes) {
  const auto doc = json_parse(R"(["\"\\\/\b\f\n\r\t","Aé"])");
  ASSERT_TRUE(doc);
  EXPECT_EQ(doc->items()[0].as_string(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(doc->items()[1].as_string(), "A\xc3\xa9");  // é in UTF-8
  // Serialization escapes control characters back out (\b and \f take
  // the generic \u00XX control form; both spellings are valid JSON).
  const std::string out = json_serialize(doc->items()[0]);
  EXPECT_EQ(out, "\"\\\"\\\\/\\u0008\\u000c\\n\\r\\t\"");
  const auto again = json_parse(out);
  ASSERT_TRUE(again);
  EXPECT_EQ(again->as_string(), doc->items()[0].as_string());
}

TEST(StoreJson, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(json_parse("", &err));
  EXPECT_FALSE(json_parse("{", &err));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &err));
  EXPECT_FALSE(json_parse("\"unterminated", &err));
  EXPECT_FALSE(json_parse("{'single':1}", &err));
  EXPECT_FALSE(json_parse("nulll", &err));
  EXPECT_FALSE(json_parse("[1,]", &err));
  EXPECT_FALSE(err.empty());
  // Depth cap: 70 nested arrays exceed the 64-level limit.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(json_parse(deep));
  EXPECT_TRUE(json_parse(std::string(60, '[') + std::string(60, ']')));
  // RFC 8259 numbers only, and in double's range: a literal beyond it
  // would serialize back as "inf", which is not JSON.
  for (const char* bad :
       {"1e999", "-1e999", "[1e400]", "1e-400", "-1e-400", "+5", "01", "-01",
        "[00]", "1.", "1.e5", ".5", "-.5", "-", "1e", "1e+", "1E-", "1.2.3",
        "1e2e3", "2-1", "{\"a\":+1}", "[- 1]", "0x10", "Infinity", "NaN"}) {
    err.clear();
    EXPECT_FALSE(json_parse(bad, &err)) << bad;
    EXPECT_NE(err.find(" at byte "), std::string::npos) << bad << ": " << err;
  }
  EXPECT_TRUE(json_parse(
      "[0,-0,0.5,-0.5e-3,1E+2,1.7976931348623157e308,4.9e-324,0e-999]"));
  // Beyond int64 is still a number, read as a double.
  const auto big = json_parse("[9223372036854775808,-9223372036854775809]");
  ASSERT_TRUE(big);
  EXPECT_FALSE(big->items()[0].is_integer());
  EXPECT_DOUBLE_EQ(big->items()[0].as_double(), 9223372036854775808.0);
  EXPECT_DOUBLE_EQ(big->items()[1].as_double(), -9223372036854775808.0);
}

TEST(StoreJson, ReaderWalksWithoutATree) {
  JsonReader reader(
      R"( {"a":[1,"x\ty"],"b\u0041":{"c":null},"d":-2.5,"e":true} )");
  ASSERT_TRUE(reader.begin_object());
  std::string_view name;
  ASSERT_TRUE(reader.next_member(name));
  EXPECT_EQ(name, "a");
  ASSERT_TRUE(reader.begin_array());
  ASSERT_TRUE(reader.next_item());
  JsonReader::Number num;
  ASSERT_TRUE(reader.read_number(num));
  EXPECT_TRUE(num.integral);
  EXPECT_EQ(num.integer, 1);
  ASSERT_TRUE(reader.next_item());
  std::string_view str;
  ASSERT_TRUE(reader.read_string(str));
  EXPECT_EQ(str, "x\ty");  // escapes decoded
  EXPECT_FALSE(reader.next_item());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.next_member(name));
  EXPECT_EQ(name, "bA");
  JsonValue::Kind kind;
  ASSERT_TRUE(reader.peek(kind));
  EXPECT_EQ(kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(reader.skip_value());
  ASSERT_TRUE(reader.next_member(name));
  EXPECT_EQ(name, "d");
  ASSERT_TRUE(reader.read_number(num));
  EXPECT_FALSE(num.integral);
  EXPECT_EQ(num.value, -2.5);
  ASSERT_TRUE(reader.next_member(name));
  bool flag = false;
  ASSERT_TRUE(reader.read_bool(flag));
  EXPECT_TRUE(flag);
  EXPECT_FALSE(reader.next_member(name));
  EXPECT_TRUE(reader.finish());
  EXPECT_EQ(reader.error(), "");

  // A read of the wrong kind fails, and the first error sticks.
  JsonReader typed(R"({"n":"37"})");
  ASSERT_TRUE(typed.begin_object());
  ASSERT_TRUE(typed.next_member(name));
  EXPECT_FALSE(typed.read_number(num));
  EXPECT_EQ(typed.error(), "expected number at byte 5");
  EXPECT_FALSE(typed.skip_value());
  EXPECT_FALSE(typed.finish());
  EXPECT_EQ(typed.error(), "expected number at byte 5");
}

TEST(StoreJson, SerializeParseFixedPoint) {
  const std::string canon =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-7})";
  const auto doc = json_parse(canon);
  ASSERT_TRUE(doc);
  const std::string once = json_serialize(*doc);
  const auto doc2 = json_parse(once);
  ASSERT_TRUE(doc2);
  EXPECT_EQ(json_serialize(*doc2), once);
}

// ---------------------------------------------------------------------------
// Canonical keys

TEST(StoreKeySuite, FieldOrderIndependence) {
  KeyBuilder a;
  a.add("proto", "pushpull").add("seed", std::uint64_t{42}).add("n", "64");
  KeyBuilder b;
  b.add("n", "64").add("seed", std::uint64_t{42}).add("proto", "pushpull");
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StoreKeySuite, FieldIdentityMatters) {
  const auto base = KeyBuilder()
                        .add("proto", "pushpull")
                        .add("seed", std::uint64_t{42})
                        .digest();
  // Different value.
  EXPECT_NE(base, KeyBuilder()
                      .add("proto", "pushpull")
                      .add("seed", std::uint64_t{43})
                      .digest());
  // Same bytes under a different field name.
  EXPECT_NE(base, KeyBuilder()
                      .add("proto2", "pushpull")
                      .add("seed", std::uint64_t{42})
                      .digest());
  // Value/name boundary shifts must not collide.
  EXPECT_NE(KeyBuilder().add("ab", "c").digest(),
            KeyBuilder().add("a", "bc").digest());
}

TEST(StoreKeySuite, DuplicateFieldThrows) {
  KeyBuilder b;
  b.add("seed", std::uint64_t{1}).add("seed", std::uint64_t{2});
  EXPECT_THROW(b.digest(), std::invalid_argument);
}

TEST(StoreKeySuite, HexRoundTrip) {
  const StoreKey k{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const std::string hex = k.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  const auto back = StoreKey::from_hex(hex);
  ASSERT_TRUE(back);
  EXPECT_EQ(*back, k);
  EXPECT_FALSE(StoreKey::from_hex("short"));
  EXPECT_FALSE(StoreKey::from_hex(std::string(32, 'g')));
  EXPECT_FALSE(StoreKey::from_hex(hex + "00"));
}

// Golden digests: these pin the canonical serialization and the hash.
// A mismatch means every existing store on disk just went cold — only
// accept it for an intentional format change, alongside a
// kStoreModelVersion bump.
TEST(StoreKeySuite, GoldenDigests) {
  const StoreKey k = KeyBuilder()
                         .add("proto", "pushpull")
                         .add("graph", std::uint64_t{0x1234})
                         .add("seed", std::uint64_t{42})
                         .digest();
  EXPECT_EQ(k.hex(), "6e046b84156426966fa13893df82fd0e");

  CellSpec cell;
  cell.protocol = "pushpull";
  cell.graph = 0xfeedfacecafebeefULL;
  cell.source = 3;
  cell.max_rounds = 1000;
  const StoreKey ck = cell_key(cell, 0xabcdef0123456789ULL);
  EXPECT_EQ(ck.hex(), "574ce4ad8edcea2761ef6906e682a4ce");
}

TEST(StoreKeySuite, GraphDigestSensitivity) {
  EXPECT_EQ(graph_digest(make_path(6)), graph_digest(make_path(6)));
  EXPECT_NE(graph_digest(make_path(6)), graph_digest(make_path(7)));
  EXPECT_NE(graph_digest(make_path(6)), graph_digest(make_cycle(6)));
  // One latency flip changes the content address.
  WeightedGraph a = make_path(6);
  WeightedGraph b = make_path(6);
  assign_uniform_latency(b, 2);
  EXPECT_NE(graph_digest(a), graph_digest(b));
}

TEST(StoreKeySuite, CellKeyCoversEveryField) {
  CellSpec base;
  base.protocol = "pushpull";
  base.graph = 99;
  base.source = 0;
  base.max_rounds = 100;
  std::set<std::string> seen;
  seen.insert(cell_key(base, 7).hex());
  auto expect_new = [&](const CellSpec& c, std::uint64_t ts) {
    EXPECT_TRUE(seen.insert(cell_key(c, ts).hex()).second)
        << "collision in cell_key field coverage";
  };
  CellSpec c = base;
  c.protocol = "flooding/dense";
  expect_new(c, 7);
  c = base;
  c.graph = 100;
  expect_new(c, 7);
  c = base;
  c.source = 1;
  expect_new(c, 7);
  c = base;
  c.max_rounds = 101;
  expect_new(c, 7);
  c = base;
  c.kind = "curve";
  expect_new(c, 7);
  c = base;
  c.faults = "{\"drop\":0.1}";
  expect_new(c, 7);
  c = base;
  c.model = "latgossip.model.v2";
  expect_new(c, 7);
  expect_new(base, 8);  // trial seed
}

// ---------------------------------------------------------------------------
// Store round trips + persistence

StoreRecord sample_record(std::uint64_t salt) {
  StoreRecord rec;
  rec.result.rounds = static_cast<Round>(10 + salt);
  rec.result.completed = (salt % 2) == 0;
  rec.result.activations = 100 + salt;
  rec.result.messages_delivered = 200 + salt;
  rec.result.messages_dropped = salt;
  rec.result.exchanges_rejected = salt / 2;
  rec.result.payload_bits = 1000 + salt;
  rec.result.max_inflight = 5 + salt;
  rec.result.fingerprint = 0xdeadbeef00000000ULL | salt;
  rec.wall_ms = 1.25 * static_cast<double>(salt + 1);
  return rec;
}

TEST(Store, InsertLookupRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  ExperimentStore store(dir);
  const StoreKey k1{1, 2};
  const StoreKey k2{3, 4};

  EXPECT_FALSE(store.lookup(k1).has_value());  // miss
  StoreRecord rec = sample_record(1);
  rec.meta = R"({"curve":[1,2,3]})";
  EXPECT_TRUE(store.insert(k1, rec));
  EXPECT_TRUE(store.contains(k1));
  EXPECT_FALSE(store.contains(k2));

  const auto got = store.lookup(k1);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->result, rec.result);  // fingerprint included
  EXPECT_DOUBLE_EQ(got->wall_ms, rec.wall_ms);
  EXPECT_EQ(got->meta, rec.meta);

  // First writer wins: duplicate insert is a no-op.
  StoreRecord other = sample_record(9);
  EXPECT_FALSE(store.insert(k1, other));
  EXPECT_EQ(store.lookup(k1)->result, rec.result);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.recovered_records, 0u);
  EXPECT_FALSE(s.repaired);
  std::filesystem::remove_all(dir);
}

TEST(Store, PersistsAcrossReopen) {
  const std::string dir = scratch_dir("persist");
  std::vector<StoreKey> keys;
  for (std::uint64_t i = 0; i < 10; ++i) keys.push_back(StoreKey{i, i * 17});
  {
    ExperimentStore store(dir);
    for (std::uint64_t i = 0; i < keys.size(); ++i)
      ASSERT_TRUE(store.insert(keys[i], sample_record(i)));
  }
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), keys.size());
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    const auto got = reopened.lookup(keys[i]);
    ASSERT_TRUE(got) << "key " << i << " lost across reopen";
    EXPECT_EQ(got->result, sample_record(i).result);
  }
  EXPECT_FALSE(reopened.stats().repaired);
  std::filesystem::remove_all(dir);
}

TEST(Store, RecordLineParseRejectsDamage) {
  const StoreKey k{7, 8};
  const StoreRecord rec = sample_record(3);
  const std::string line = store_record_line(k, rec);
  const auto parsed = parse_store_record(line);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->first, k);
  EXPECT_EQ(parsed->second.result, rec.result);

  EXPECT_FALSE(parse_store_record(""));
  EXPECT_FALSE(parse_store_record("not json at all"));
  EXPECT_FALSE(parse_store_record(line.substr(0, line.size() / 2)));
  // Wrong schema.
  std::string wrong = line;
  const auto pos = wrong.find("latgossip.store.v1");
  wrong.replace(pos, 18, "latgossip.store.v9");
  EXPECT_FALSE(parse_store_record(wrong));
  // Malformed key hex.
  std::string badkey = line;
  badkey.replace(badkey.find("\"key\":\"") + 7, 4, "zzzz");
  EXPECT_FALSE(parse_store_record(badkey));
  // Missing result field.
  std::string nofield = line;
  const auto rpos = nofield.find("\"rounds\"");
  ASSERT_NE(rpos, std::string::npos);
  nofield.replace(rpos, 8, "\"r0unds\"");
  EXPECT_FALSE(parse_store_record(nofield));

  // A required field of the wrong type or range is damage as well: it
  // must not replay as a default and be served as a hit.
  const auto with_value = [&line](const std::string& field,
                                  const std::string& value) {
    std::string damaged = line;
    const std::size_t begin = damaged.find("\"" + field + "\":") +
                              field.size() + 3;
    return damaged.replace(begin, damaged.find_first_of(",}", begin) - begin,
                           value);
  };
  for (const auto& [field, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"rounds", "3.5"},
           {"rounds", "\"37\""},
           {"rounds", "-37"},
           {"rounds", "9223372036854775808"},
           {"rounds", "1e2"},
           {"rounds", "null"},
           {"completed", "1"},
           {"completed", "\"false\""},
           {"activations", "-1"},
           {"messages_delivered", "2.0"},
           {"messages_dropped", "\"0\""},
           {"exchanges_rejected", "false"},
           {"payload_bits", "18446744073709551615"},
           {"max_inflight", "[5]"},
           {"fingerprint", "\"0X00000000deadbeef\""},
           {"fingerprint", "\"0x00000000DEADBEEF\""},
           {"fingerprint", "3735928559"}}) {
    EXPECT_FALSE(parse_store_record(with_value(field, value)))
        << field << " = " << value;
  }
  // So is a member named twice, whichever copy a reader would keep.
  std::string dup_field = line;
  dup_field.insert(dup_field.find("\"rounds\""), "\"rounds\":13,");
  EXPECT_FALSE(parse_store_record(dup_field));
  std::string dup_key = line;
  dup_key.insert(1, "\"key\":\"" + StoreKey{1, 2}.hex() + "\",");
  EXPECT_FALSE(parse_store_record(dup_key));
  std::string dup_other = line;
  dup_other.insert(1, "\"note\":1,\"note\":1,");
  EXPECT_FALSE(parse_store_record(dup_other));

  // Still a record: unknown members (each once), no wall_ms, and a
  // CRLF line ending.
  std::string extra = line;
  extra.insert(1, "\"note\":{\"a\":[1,\"x\"]},");
  extra.insert(extra.find("\"rounds\""), "\"note\":null,");
  std::string no_wall = line;
  const std::size_t wall = no_wall.find(",\"wall_ms\":");
  no_wall.erase(wall, no_wall.size() - 1 - wall);
  for (const std::string& variant : {extra, no_wall, line + "\r"}) {
    const auto got = parse_store_record(variant);
    ASSERT_TRUE(got) << variant;
    EXPECT_EQ(got->first, k);
    EXPECT_EQ(got->second.result, rec.result);
  }
  EXPECT_EQ(parse_store_record(no_wall)->second.wall_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Differential check of the record reader against the tree walk it
// replaced

/// The typed member reads the reference was written against, which give
/// the default for a member of the wrong type. (JsonValue's own getters
/// now throw for one, as serve's request fields need.)
std::int64_t lenient_i64(const JsonValue& o, std::string_view key,
                         std::int64_t def) {
  const JsonValue* v = o.get(key);
  return v != nullptr && v->is_integer() ? v->as_i64() : def;
}
std::uint64_t lenient_u64(const JsonValue& o, std::string_view key,
                          std::uint64_t def) {
  const JsonValue* v = o.get(key);
  return v != nullptr && v->is_integer() ? v->as_u64() : def;
}
double lenient_double(const JsonValue& o, std::string_view key, double def) {
  const JsonValue* v = o.get(key);
  return v != nullptr && v->is_number() ? v->as_double() : def;
}
bool lenient_bool(const JsonValue& o, std::string_view key, bool def) {
  const JsonValue* v = o.get(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : def;
}
std::string lenient_string(const JsonValue& o, std::string_view key,
                           std::string_view def) {
  const JsonValue* v = o.get(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string(def);
}

/// The tree-walking record parser the store used before its streaming
/// reader, kept verbatim as the reference (its typed reads spelled as
/// the lenient helpers above). It runs on today's
/// json_parse, so both sides share one JSON grammar and differ only in
/// how they read a record out of it.
std::optional<std::pair<StoreKey, StoreRecord>> reference_parse_store_record(
    std::string_view line) {
  const std::optional<JsonValue> doc = json_parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  if (lenient_string(*doc, "schema", "") != ExperimentStore::kSchema)
    return std::nullopt;
  const std::optional<StoreKey> key =
      StoreKey::from_hex(lenient_string(*doc, "key", ""));
  if (!key) return std::nullopt;
  const JsonValue* result = doc->get("result");
  if (result == nullptr || !result->is_object()) return std::nullopt;
  // Every result field is required: a record that lost one is damage,
  // not a schema variant.
  for (const char* field :
       {"rounds", "completed", "activations", "messages_delivered",
        "messages_dropped", "exchanges_rejected", "payload_bits",
        "max_inflight", "fingerprint"}) {
    if (result->get(field) == nullptr) return std::nullopt;
  }
  StoreRecord rec;
  rec.result.rounds = lenient_i64(*result, "rounds", 0);
  rec.result.completed = lenient_bool(*result, "completed", false);
  rec.result.activations =
      static_cast<std::size_t>(lenient_u64(*result, "activations", 0));
  rec.result.messages_delivered =
      static_cast<std::size_t>(lenient_u64(*result, "messages_delivered", 0));
  rec.result.messages_dropped =
      static_cast<std::size_t>(lenient_u64(*result, "messages_dropped", 0));
  rec.result.exchanges_rejected =
      static_cast<std::size_t>(lenient_u64(*result, "exchanges_rejected", 0));
  rec.result.payload_bits =
      static_cast<std::size_t>(lenient_u64(*result, "payload_bits", 0));
  rec.result.max_inflight =
      static_cast<std::size_t>(lenient_u64(*result, "max_inflight", 0));
  const std::string fp = lenient_string(*result, "fingerprint", "");
  if (fp.size() != 18 || fp.compare(0, 2, "0x") != 0) return std::nullopt;
  std::uint64_t fp_value = 0;
  for (std::size_t i = 2; i < fp.size(); ++i) {
    const char c = fp[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else
      return std::nullopt;
    fp_value = (fp_value << 4) | digit;
  }
  rec.result.fingerprint = fp_value;
  rec.wall_ms = lenient_double(*doc, "wall_ms", 0.0);
  if (const JsonValue* meta = doc->get("meta");
      meta != nullptr && meta->is_object())
    rec.meta = json_serialize(*meta);
  return std::make_pair(*key, std::move(rec));
}

using ParsedRecord = std::pair<StoreKey, StoreRecord>;

bool same_record(const ParsedRecord& a, const ParsedRecord& b) {
  return a.first == b.first && a.second.result == b.second.result &&
         a.second.wall_ms == b.second.wall_ms && a.second.meta == b.second.meta;
}

/// A record with counters anywhere in [0, 2^63) and, when asked, a meta
/// object in json_serialize's canonical form.
StoreRecord random_record(Rng& rng, bool with_meta) {
  const auto count = [&rng]() -> std::uint64_t {
    switch (rng.uniform(3)) {
      case 0: return rng.uniform(10);
      case 1: return rng.uniform(1'000'000);
      default: return rng() >> 1;
    }
  };
  StoreRecord rec;
  rec.result.rounds = static_cast<Round>(count());
  rec.result.completed = rng.uniform(2) == 0;
  rec.result.activations = count();
  rec.result.messages_delivered = count();
  rec.result.messages_dropped = count();
  rec.result.exchanges_rejected = count();
  rec.result.payload_bits = count();
  rec.result.max_inflight = count();
  rec.result.fingerprint = rng();
  rec.wall_ms = static_cast<double>(rng.uniform(10'000'000)) / 1000.0;
  if (with_meta) {
    std::vector<JsonValue> curve;
    for (std::size_t i = 0, len = rng.uniform(6); i < len; ++i)
      curve.push_back(
          JsonValue::make_integer(static_cast<std::int64_t>(count())));
    rec.meta = json_serialize(JsonValue::make_object(
        {{"curve", JsonValue::make_array(std::move(curve))},
         {"note", JsonValue::make_string("q\"b\\s\n\x01")},
         {"x", JsonValue::make_number(
                   0.1 * static_cast<double>(rng.uniform(100)))}}));
  }
  return rec;
}

std::string flip_byte(std::string line, Rng& rng) {
  static constexpr char kBytes[] = "09afxX\"\\,:{}[]-+.eE \t\r\n\x01\x7f";
  const std::size_t at = rng.uniform(line.size());
  line[at] = rng.uniform(2) == 0
                 ? kBytes[rng.uniform(sizeof kBytes - 1)]
                 : static_cast<char>(line[at] ^ (1 << rng.uniform(8)));
  return line;
}

/// Duplicate, reorder, remove or retype a member of the record or of
/// its result object, through the tree, then write the line back.
std::string mutate_member(const std::string& line, Rng& rng) {
  static const std::vector<JsonValue> kRetypes = [] {
    std::vector<JsonValue> values;
    for (const char* text :
         {"3.5", "\"37\"", "1", "0", "-1", "-37", "true", "null",
          "9223372036854775808", "1e3", "[]", "{}", "\"0x0000000000000001\""})
      values.push_back(*json_parse(text));
    return values;
  }();
  std::vector<std::pair<std::string, JsonValue>> record =
      json_parse(line)->members();
  const auto result =
      std::find_if(record.begin(), record.end(),
                   [](const auto& m) { return m.first == "result"; });
  const bool in_result = rng.uniform(2) == 0;
  std::vector<std::pair<std::string, JsonValue>> members =
      in_result ? result->second.members() : record;
  const std::size_t i = rng.uniform(members.size());
  switch (rng.uniform(4)) {
    case 0: {
      auto copy = members[i];
      if (rng.uniform(2) == 0)
        copy.second = kRetypes[rng.uniform(kRetypes.size())];
      members.insert(members.begin() + static_cast<std::ptrdiff_t>(
                                           rng.uniform(members.size() + 1)),
                     std::move(copy));
      break;
    }
    case 1: rng.shuffle(members); break;
    case 2:
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    default: members[i].second = kRetypes[rng.uniform(kRetypes.size())];
  }
  if (!in_result)
    return json_serialize(JsonValue::make_object(std::move(members)));
  result->second = JsonValue::make_object(std::move(members));
  return json_serialize(JsonValue::make_object(std::move(record)));
}

bool names_repeat(const JsonValue& object) {
  std::set<std::string> names;
  for (const auto& member : object.members())
    if (!names.insert(member.first).second) return true;
  return false;
}

/// A required result field the reference read through a typed getter's
/// default: a count that is no integer in [0, 2^63), or a non-boolean
/// "completed".
bool required_field_mistyped(const JsonValue& result) {
  for (const char* field : {"rounds", "activations", "messages_delivered",
                            "messages_dropped", "exchanges_rejected",
                            "payload_bits", "max_inflight"}) {
    const JsonValue* v = result.get(field);
    if (!v->is_integer() || v->as_i64() < 0) return true;
  }
  return !result.get("completed")->is_bool();
}

TEST(Store, RecordReaderAgreesWithTreeReference) {
  Rng rng(25);
  std::size_t both_accept = 0, both_reject = 0;
  std::size_t duplicate_names = 0, mistyped_fields = 0;
  for (std::size_t r = 0; r < 300; ++r) {
    const StoreKey key{rng(), rng()};
    const StoreRecord rec = random_record(rng, r % 2 == 1);
    const std::string line = store_record_line(key, rec);
    // Every written line reads back as the record that was written, on
    // both readers.
    const auto fast = parse_store_record(line);
    const auto ref = reference_parse_store_record(line);
    ASSERT_TRUE(fast && ref) << line;
    ASSERT_TRUE(same_record(*fast, ParsedRecord{key, rec})) << line;
    ASSERT_TRUE(same_record(*ref, *fast)) << line;

    for (std::size_t m = 0; m < 24; ++m) {
      static constexpr const char* kTails[] = {"\r", "\r\n", " ", "x", "}",
                                               ",", "{}", "\"\""};
      std::string damaged;
      switch (m % 6) {
        case 0: damaged = flip_byte(line, rng); break;
        case 1: damaged = line.substr(0, rng.uniform(line.size())); break;
        case 2:
        case 3: damaged = mutate_member(line, rng); break;
        case 4: damaged = mutate_member(line, rng) + "\r"; break;
        default: damaged = line + kTails[rng.uniform(std::size(kTails))];
      }
      const auto got = parse_store_record(damaged);
      const auto want = reference_parse_store_record(damaged);
      if (got) {
        // Whatever the streaming reader accepts, the reference accepts
        // as the same record.
        ASSERT_TRUE(want) << damaged;
        ASSERT_TRUE(same_record(*got, *want)) << damaged;
        ++both_accept;
        continue;
      }
      if (!want) {
        ++both_reject;
        continue;
      }
      // Rejected here, accepted there: only a member named twice or a
      // required field of the wrong type may explain it.
      const JsonValue doc = *json_parse(damaged);
      const JsonValue& result = *doc.get("result");
      if (names_repeat(doc) || names_repeat(result)) {
        ++duplicate_names;
      } else {
        ASSERT_TRUE(required_field_mistyped(result)) << damaged;
        ++mistyped_fields;
      }
    }
  }
  EXPECT_GT(both_accept, 0u);
  EXPECT_GT(both_reject, 0u);
  EXPECT_GT(duplicate_names, 0u);
  EXPECT_GT(mistyped_fields, 0u);
}

TEST(Store, RecoversFromCorruptedAndTruncatedLog) {
  const std::string dir = scratch_dir("recover");
  std::vector<StoreKey> keys;
  for (std::uint64_t i = 0; i < 6; ++i) keys.push_back(StoreKey{i + 1, i});
  std::string log_path;
  {
    ExperimentStore store(dir);
    log_path = store.log_path();
    for (std::uint64_t i = 0; i < keys.size(); ++i)
      ASSERT_TRUE(store.insert(keys[i], sample_record(i)));
  }
  // Damage the middle of the log (a bad sector) and truncate the tail
  // (a crash mid-append): read all lines, corrupt line 2, chop half of
  // the final line, and append one garbage line for good measure.
  std::vector<std::string> lines;
  {
    std::ifstream in(log_path);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  ASSERT_EQ(lines.size(), keys.size());
  lines[2] = "{\"schema\":\"latgossip.store.v1\",\"key\":CORRUPTED";
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  {
    std::ofstream out(log_path, std::ios::trunc);
    for (const std::string& l : lines) out << l << '\n';
    out << "garbage that is not json\n";
  }

  ExperimentStore recovered(dir);
  // Valid records survive — including the ones *after* the corrupted
  // line; the damaged line, the truncated tail, and the garbage are
  // dropped and counted.
  EXPECT_EQ(recovered.size(), keys.size() - 2);
  EXPECT_EQ(recovered.stats().recovered_records, 3u);
  EXPECT_TRUE(recovered.stats().repaired);
  EXPECT_TRUE(recovered.contains(keys[3]));  // after the corruption
  EXPECT_FALSE(recovered.contains(keys[2]));
  EXPECT_FALSE(recovered.contains(keys.back()));
  // Repair-on-open rewrote the log: a second open sees a clean file.
  ExperimentStore clean(dir);
  EXPECT_EQ(clean.size(), keys.size() - 2);
  EXPECT_EQ(clean.stats().recovered_records, 0u);
  EXPECT_FALSE(clean.stats().repaired);
  // And the store stays writable after repair.
  EXPECT_TRUE(clean.insert(StoreKey{100, 100}, sample_record(7)));
  std::filesystem::remove_all(dir);
}

TEST(Store, ConcurrentInsertsFromPoolWorkers) {
  const std::string dir = scratch_dir("concurrent");
  ExperimentStore store(dir);
  constexpr std::size_t kCells = 64;
  // Workers hammer insert + lookup + contains concurrently; every
  // observable must come out consistent (exercised under TSan in CI).
  TrialPool::global().run(kCells, 8, [&](std::size_t i, std::size_t) {
    const StoreKey key{i + 1, i * 31};
    ASSERT_TRUE(store.insert(key, sample_record(i)));
    ASSERT_FALSE(store.insert(key, sample_record(i)));  // dup is a no-op
    const auto got = store.lookup(key);
    ASSERT_TRUE(got);
    EXPECT_EQ(got->result, sample_record(i).result);
    store.contains(StoreKey{(i + 7) % kCells + 1, 0});
  });
  EXPECT_EQ(store.size(), kCells);
  EXPECT_EQ(store.stats().inserts, kCells);
  // Every record made it to disk intact.
  ExperimentStore reopened(dir);
  EXPECT_EQ(reopened.size(), kCells);
  EXPECT_EQ(reopened.stats().recovered_records, 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// run_trials_stored

TrialWsFn recorded_push_pull_trial(const WeightedGraph& g) {
  return [&g](std::size_t, Rng rng, TrialWorkspace& ws) {
    thread_local EventRecorder recorder;
    recorder.clear();
    NetworkView view(g, false);
    auto& proto = ws.slot<PushPullBroadcast>(view, 0, rng);
    proto.reset(view, 0, rng);
    SimOptions opts;
    opts.workspace = &ws;
    opts.recorder = &recorder;
    SimResult result = run_gossip(g, proto, opts);
    result.fingerprint = recorder.fingerprint();
    return result;
  };
}

StoreBinding bind_cell(ExperimentStore& store, const WeightedGraph& g,
                       bool verify = false) {
  StoreBinding binding;
  binding.store = &store;
  binding.verify = verify;
  binding.cell.protocol = "pushpull";
  binding.cell.graph = graph_digest(g);
  binding.cell.source = 0;
  binding.cell.max_rounds = 5'000'000;
  return binding;
}

TEST(RunTrialsStored, MissThenHitBitIdentical) {
  const std::string dir = scratch_dir("stored_hit");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  StoredBatchStats cold, warm;

  const TrialAggregate fresh =
      run_trials_stored(bind_cell(store, g), &cold, 8, 4, 99, trial);
  EXPECT_EQ(cold.misses, 8u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.verified, 0u);

  const TrialAggregate cached =
      run_trials_stored(bind_cell(store, g), &warm, 8, 4, 99, trial);
  EXPECT_EQ(warm.hits, 8u);
  EXPECT_EQ(warm.misses, 0u);

  // Hit batches aggregate bit-identically to computed batches —
  // per-trial results, merged fingerprint, and accumulators.
  ASSERT_EQ(cached.trials.size(), fresh.trials.size());
  for (std::size_t t = 0; t < fresh.trials.size(); ++t)
    EXPECT_EQ(cached.trials[t], fresh.trials[t]) << "trial " << t;
  EXPECT_EQ(cached.fingerprint, fresh.fingerprint);
  EXPECT_EQ(cached.num_completed, fresh.num_completed);
  EXPECT_DOUBLE_EQ(cached.rounds.mean(), fresh.rounds.mean());
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, ResumedSweepHitsComputedCells) {
  const std::string dir = scratch_dir("stored_resume");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  StoredBatchStats first, resumed;

  // 4 trials now, 8 later: per-trial keys derive from trial_seed(), so
  // the wider sweep re-uses the 4 computed cells and only pays for the
  // new ones.
  run_trials_stored(bind_cell(store, g), &first, 4, 2, 99, trial);
  EXPECT_EQ(first.misses, 4u);
  const TrialAggregate agg =
      run_trials_stored(bind_cell(store, g), &resumed, 8, 2, 99, trial);
  EXPECT_EQ(resumed.hits, 4u);
  EXPECT_EQ(resumed.misses, 4u);

  // And the mixed hit/miss batch equals an all-fresh batch.
  const std::string dir2 = scratch_dir("stored_resume_fresh");
  ExperimentStore fresh_store(dir2);
  const TrialAggregate fresh =
      run_trials_stored(bind_cell(fresh_store, g), nullptr, 8, 2, 99, trial);
  EXPECT_EQ(agg.fingerprint, fresh.fingerprint);
  for (std::size_t t = 0; t < 8; ++t)
    EXPECT_EQ(agg.trials[t], fresh.trials[t]);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(RunTrialsStored, SeedChangesMissTheCache) {
  const std::string dir = scratch_dir("stored_seed");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  run_trials_stored(bind_cell(store, g), nullptr, 4, 2, 99, trial);
  StoredBatchStats other;
  run_trials_stored(bind_cell(store, g), &other, 4, 2, 100, trial);
  EXPECT_EQ(other.hits, 0u);
  EXPECT_EQ(other.misses, 4u);
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, VerifyPassesOnHonestCacheAndCatchesPoison) {
  const std::string dir = scratch_dir("stored_verify");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);
  run_trials_stored(bind_cell(store, g), nullptr, 4, 2, 99, trial);

  StoredBatchStats verified;
  run_trials_stored(bind_cell(store, g, /*verify=*/true), &verified, 4, 2, 99,
                    trial);
  EXPECT_EQ(verified.hits, 4u);
  EXPECT_EQ(verified.verified, 4u);

  // Poison one cell in a fresh store: verify must throw, naming the key.
  const std::string dir2 = scratch_dir("stored_poison");
  ExperimentStore poisoned(dir2);
  StoreBinding binding = bind_cell(poisoned, g, /*verify=*/true);
  StoreRecord bogus = sample_record(5);
  const StoreKey key = cell_key(binding.cell, trial_seed(99, 0));
  ASSERT_TRUE(poisoned.insert(key, bogus));
  EXPECT_THROW(
      run_trials_stored(binding, nullptr, 4, 2, 99, trial),
      std::runtime_error);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(RunTrialsStored, MetaRoundTrip) {
  const std::string dir = scratch_dir("stored_meta");
  const WeightedGraph g = test_graph();
  const TrialWsFn trial = recorded_push_pull_trial(g);
  ExperimentStore store(dir);

  StoreBinding binding = bind_cell(store, g);
  binding.cell.kind = "meta_test";
  binding.meta_fn = [](std::size_t t) {
    return "{\"trial\":" + std::to_string(t) + "}";
  };
  std::vector<std::string> replayed(4);
  binding.on_hit_meta = [&](std::size_t t, const std::string& meta) {
    replayed[t] = meta;
  };
  run_trials_stored(binding, nullptr, 4, 2, 99, trial);
  EXPECT_EQ(replayed, std::vector<std::string>(4));  // misses don't replay

  run_trials_stored(binding, nullptr, 4, 2, 99, trial);
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_EQ(replayed[t], "{\"trial\":" + std::to_string(t) + "}");
  std::filesystem::remove_all(dir);
}

TEST(RunTrialsStored, RequiresStore) {
  StoreBinding binding;  // no store bound
  EXPECT_THROW(run_trials_stored(binding, nullptr, 1, 1, 1,
                                 [](std::size_t, Rng, TrialWorkspace&) {
                                   return SimResult{};
                                 }),
               std::invalid_argument);
}

}  // namespace
}  // namespace latgossip
