#include "store/store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
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

std::optional<std::pair<StoreKey, StoreRecord>> parse_store_record(
    std::string_view line) {
  const std::optional<JsonValue> doc = json_parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  if (doc->get_string("schema", "") != ExperimentStore::kSchema)
    return std::nullopt;
  const std::optional<StoreKey> key =
      StoreKey::from_hex(doc->get_string("key", ""));
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
  rec.result.rounds = result->get_i64("rounds", 0);
  rec.result.completed = result->get_bool("completed", false);
  rec.result.activations =
      static_cast<std::size_t>(result->get_u64("activations", 0));
  rec.result.messages_delivered =
      static_cast<std::size_t>(result->get_u64("messages_delivered", 0));
  rec.result.messages_dropped =
      static_cast<std::size_t>(result->get_u64("messages_dropped", 0));
  rec.result.exchanges_rejected =
      static_cast<std::size_t>(result->get_u64("exchanges_rejected", 0));
  rec.result.payload_bits =
      static_cast<std::size_t>(result->get_u64("payload_bits", 0));
  rec.result.max_inflight =
      static_cast<std::size_t>(result->get_u64("max_inflight", 0));
  const std::string fp = result->get_string("fingerprint", "");
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
  rec.wall_ms = doc->get_double("wall_ms", 0.0);
  if (const JsonValue* meta = doc->get("meta");
      meta != nullptr && meta->is_object())
    rec.meta = json_serialize(*meta);
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
