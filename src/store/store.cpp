#include "store/store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>
#include <stdexcept>
#include <vector>

#include "obs/export.h"
#include "store/json.h"

namespace latgossip {

std::string store_record_line(const StoreKey& key, const StoreRecord& rec) {
  std::string out = "{\"schema\":\"";
  out += ExperimentStore::kSchema;
  out += "\",\"key\":\"";
  out += key.hex();
  out += "\",\"result\":";
  json_append_sim_result(out, rec.result);
  out += ",\"wall_ms\":";
  json_append_fixed(out, rec.wall_ms, 3);
  if (!rec.meta.empty()) {
    out += ",\"meta\":";
    out += rec.meta;  // already-serialized JSON object
  }
  out += '}';
  return out;
}

namespace {

/// A record's members, in the order store_record_line writes them;
/// schema, key and result are required.
enum RecordField : unsigned { kSchema, kKey, kResult, kWallMs, kMeta };
constexpr std::string_view kRecordFields[] = {"schema", "key", "result",
                                              "wall_ms", "meta"};
constexpr unsigned kRequiredRecordFields =
    (1u << kSchema) | (1u << kKey) | (1u << kResult);

/// The members of its "result" object, all required, in the order
/// json_append_sim_result writes them: rounds, completed, the six
/// counters of kCounters, fingerprint.
constexpr std::string_view kResultFields[] = {
    "rounds", "completed", "activations", "messages_delivered",
    "messages_dropped", "exchanges_rejected", "payload_bits", "max_inflight",
    "fingerprint"};
constexpr std::size_t SimResult::*kCounters[] = {
    &SimResult::activations, &SimResult::messages_delivered,
    &SimResult::messages_dropped, &SimResult::exchanges_rejected,
    &SimResult::payload_bits, &SimResult::max_inflight};

/// Index of `name` in `fields`, or N when it is none of them.
template <std::size_t N>
unsigned field_index(const std::string_view (&fields)[N],
                     std::string_view name) {
  return static_cast<unsigned>(std::find(fields, fields + N, name) - fields);
}

/// Notes that an object named a member; false when it had named it
/// before. `field` is the member's index among the object's `num_fields`
/// known names (a bit of `seen`), or `num_fields` for an unknown `name`
/// (kept in `unknown`; store_record_line writes none).
bool first_mention(unsigned field, std::size_t num_fields,
                   std::string_view name, unsigned& seen,
                   std::vector<std::string>& unknown) {
  if (field == num_fields) {
    if (std::find(unknown.begin(), unknown.end(), name) != unknown.end())
      return false;
    unknown.emplace_back(name);
    return true;
  }
  if ((seen & (1u << field)) != 0) return false;
  seen |= (1u << field);
  return true;
}

/// A counter or a round number: an integer literal in [0, 2^63).
bool read_count(JsonReader& reader, std::uint64_t& out) {
  JsonReader::Number num;
  if (!reader.read_number(num) || !num.integral || num.integer < 0)
    return false;
  out = static_cast<std::uint64_t>(num.integer);
  return true;
}

/// The "result" object: every field present once, of its type. A
/// record that lost a field, or whose field changed type, is damage.
bool read_result(JsonReader& reader, SimResult& out) {
  if (!reader.begin_object()) return false;
  constexpr std::size_t kNumFields = std::size(kResultFields);
  unsigned seen = 0;
  std::vector<std::string> unknown;
  std::string_view name;
  while (reader.next_member(name)) {
    const unsigned field = field_index(kResultFields, name);
    if (!first_mention(field, kNumFields, name, seen, unknown)) return false;
    std::uint64_t count = 0;
    std::string_view fp;
    bool ok = true;
    switch (field) {
      case 0:
        ok = read_count(reader, count);
        out.rounds = static_cast<Round>(count);
        break;
      case 1: ok = reader.read_bool(out.completed); break;
      case kNumFields - 1:  // "0x" and 16 lowercase hex digits
        ok = reader.read_string(fp) && fp.substr(0, 2) == "0x" &&
             parse_hex64(fp.substr(2), out.fingerprint);
        break;
      case kNumFields: ok = reader.skip_value(); break;
      default:
        ok = read_count(reader, count);
        out.*kCounters[field - 2] = static_cast<std::size_t>(count);
    }
    if (!ok) return false;
  }
  return reader.ok() && seen == (1u << kNumFields) - 1;
}

}  // namespace

std::optional<std::pair<StoreKey, StoreRecord>> parse_store_record(
    std::string_view line) {
  JsonReader reader(line);
  if (!reader.begin_object()) return std::nullopt;
  unsigned seen = 0;
  std::vector<std::string> unknown;
  std::optional<StoreKey> key;
  StoreRecord rec;
  std::string_view name;
  while (reader.next_member(name)) {
    const unsigned field = field_index(kRecordFields, name);
    if (!first_mention(field, std::size(kRecordFields), name, seen, unknown))
      return std::nullopt;
    std::string_view text;
    JsonValue::Kind kind = JsonValue::Kind::kNull;
    bool ok = true;
    switch (field) {
      case kSchema:
        ok = reader.read_string(text) && text == ExperimentStore::kSchema;
        break;
      case kKey:
        if (reader.read_string(text)) key = StoreKey::from_hex(text);
        ok = key.has_value();
        break;
      case kResult: ok = read_result(reader, rec.result); break;
      // Optional, and never damage: a wall_ms that is not a number
      // reads as 0, and a meta that is not an object as none.
      case kWallMs:
        if (reader.peek(kind) && kind == JsonValue::Kind::kNumber) {
          JsonReader::Number num;
          ok = reader.read_number(num);
          rec.wall_ms = num.value;
        } else {
          ok = reader.skip_value();
        }
        break;
      case kMeta:
        if (reader.peek(kind) && kind == JsonValue::Kind::kObject) {
          JsonValue meta;
          ok = reader.read_value(meta);
          rec.meta = json_serialize(meta);
        } else {
          ok = reader.skip_value();
        }
        break;
      default: ok = reader.skip_value();
    }
    if (!ok) return std::nullopt;
  }
  if (!reader.finish() ||
      (seen & kRequiredRecordFields) != kRequiredRecordFields)
    return std::nullopt;
  return std::make_pair(*key, std::move(rec));
}

ExperimentStore::ExperimentStore(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw std::runtime_error("store: cannot create directory " + dir_ + ": " +
                             ec.message());
  replay_and_repair();
  log_ = std::fopen(log_path().c_str(), "a");
  if (log_ == nullptr)
    throw std::runtime_error("store: cannot open " + log_path() +
                             " for append");
}

ExperimentStore::~ExperimentStore() {
  if (log_ != nullptr) std::fclose(log_);
}

std::string ExperimentStore::log_path() const {
  return dir_ + "/store.v1.log";
}

void ExperimentStore::replay_and_repair() {
  std::ifstream in(log_path());
  if (!in) return;  // fresh store
  // Room for every record the log could hold (no line store_record_line
  // writes is shorter than an all-zero record's) and for half as many
  // inserts again, so neither replay nor the inserts soon after it
  // rehash the index: a rehash holds the old and the new bucket arrays
  // at once, and one that fits the log exactly is outgrown by the first
  // few thousand inserts of a serving daemon.
  std::error_code size_ec;
  const std::uintmax_t log_bytes =
      std::filesystem::file_size(log_path(), size_ec);
  if (!size_ec) {
    const std::size_t min_line =
        store_record_line(StoreKey{}, StoreRecord{}).size() + 1;
    index_.reserve(static_cast<std::size_t>(log_bytes / min_line * 3 / 2));
  }
  std::string line;
  // getline drops a trailing partial line's missing '\n' silently, so a
  // truncated final record shows up here as a parse failure — exactly
  // the recovery path.
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto parsed = parse_store_record(line)) {
      index_[parsed->first] = std::move(parsed->second);
    } else {
      ++recovered_;
    }
  }
  in.close();
  if (recovered_ == 0) return;

  // Damage found: rewrite the log with only the valid records, through
  // a temp file + atomic rename so a crash mid-repair leaves either the
  // old damaged log (repaired again next open) or the new clean one —
  // never a half-written file under the live name.
  const std::string tmp = log_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("store: cannot write repair file " + tmp);
    for (const auto& [key, rec] : index_)
      out << store_record_line(key, rec) << '\n';
    out.flush();
    if (!out)
      throw std::runtime_error("store: repair write to " + tmp + " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, log_path(), ec);
  if (ec)
    throw std::runtime_error("store: cannot rename " + tmp + ": " +
                             ec.message());
  repaired_ = true;
}

std::optional<StoreRecord> ExperimentStore::lookup(const StoreKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

bool ExperimentStore::contains(const StoreKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

bool ExperimentStore::insert(const StoreKey& key, const StoreRecord& rec) {
  // Serialize outside the lock; the append itself is one fwrite so
  // concurrent inserts interleave only at record granularity.
  std::string line = store_record_line(key, rec);
  line += '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  if (!index_.emplace(key, rec).second) return false;
  if (std::fwrite(line.data(), 1, line.size(), log_) != line.size() ||
      std::fflush(log_) != 0) {
    index_.erase(key);
    throw std::runtime_error("store: append to " + log_path() + " failed");
  }
  ++inserts_;
  return true;
}

void ExperimentStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (log_ != nullptr) std::fflush(log_);
}

std::size_t ExperimentStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

StoreStats ExperimentStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats s;
  s.records = index_.size();
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.recovered_records = recovered_;
  s.repaired = repaired_;
  return s;
}

}  // namespace latgossip
