#include "store/key.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

namespace latgossip {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// Lane 0 uses the standard FNV-1a offset basis; lane 1 a distinct one
// so the lanes decorrelate (same update, different trajectory).
constexpr std::uint64_t kOffset0 = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kOffset1 = 0x6c62272e07bb0142ULL;

inline void fnv_update(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// SplitMix64 finalizer — diffuses FNV's weak low bits.
inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::string StoreKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

namespace {

/// Value of each lowercase hex digit; 0xff marks every other byte.
constexpr auto kHexDigit = [] {
  std::array<std::uint8_t, 256> digit{};
  digit.fill(0xff);
  for (int c = '0'; c <= '9'; ++c)
    digit[c] = static_cast<std::uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c)
    digit[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  return digit;
}();

}  // namespace

bool parse_hex64(std::string_view s, std::uint64_t& out) noexcept {
  if (s.size() != 16) return false;
  // Branch-free: a store log's keys and fingerprints are random digits,
  // which a digit-or-letter branch would mispredict every other byte.
  std::uint64_t value = 0;
  unsigned bad = 0;
  for (const char c : s) {
    const std::uint8_t digit = kHexDigit[static_cast<unsigned char>(c)];
    bad |= digit;
    value = (value << 4) | (digit & 0xfu);
  }
  if ((bad & 0xf0u) != 0) return false;
  out = value;
  return true;
}

std::optional<StoreKey> StoreKey::from_hex(std::string_view s) {
  StoreKey k;
  if (s.size() != 32 || !parse_hex64(s.substr(0, 16), k.hi) ||
      !parse_hex64(s.substr(16), k.lo))
    return std::nullopt;
  return k;
}

KeyBuilder& KeyBuilder::add(std::string_view field, std::string_view value) {
  fields_.emplace_back(std::string(field), std::string(value));
  return *this;
}

KeyBuilder& KeyBuilder::add(std::string_view field, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  return add(field, std::string_view(buf));
}

KeyBuilder& KeyBuilder::add(std::string_view field, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  return add(field, std::string_view(buf));
}

StoreKey KeyBuilder::digest() const {
  // Canonical form: fields sorted by name, each serialized as
  // name 0x1F value 0x1E. The separators cannot occur in graph params
  // or protocol names, so distinct field sets cannot alias.
  std::vector<std::pair<std::string, std::string>> sorted = fields_;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i].first == sorted[i - 1].first)
      throw std::invalid_argument("KeyBuilder: duplicate field '" +
                                  sorted[i].first + "'");
  std::uint64_t h0 = kOffset0;
  std::uint64_t h1 = kOffset1;
  for (const auto& [name, value] : sorted) {
    const char us = '\x1f';
    const char rs = '\x1e';
    fnv_update(h0, name.data(), name.size());
    fnv_update(h0, &us, 1);
    fnv_update(h0, value.data(), value.size());
    fnv_update(h0, &rs, 1);
    fnv_update(h1, name.data(), name.size());
    fnv_update(h1, &us, 1);
    fnv_update(h1, value.data(), value.size());
    fnv_update(h1, &rs, 1);
    // Cross-feed the lanes so they never collapse to a shared
    // trajectory on pathological input.
    h1 ^= mix(h0);
  }
  return StoreKey{mix(h0), mix(h1)};
}

std::uint64_t graph_digest(const WeightedGraph& g) {
  std::uint64_t h = kOffset0;
  const std::uint64_t n = g.num_nodes();
  const std::uint64_t m = g.num_edges();
  fnv_update(h, &n, sizeof n);
  fnv_update(h, &m, sizeof m);
  for (const Edge& e : g.edges()) {
    const std::uint64_t u = e.u;
    const std::uint64_t v = e.v;
    const std::int64_t lat = e.latency;
    fnv_update(h, &u, sizeof u);
    fnv_update(h, &v, sizeof v);
    fnv_update(h, &lat, sizeof lat);
  }
  return mix(h);
}

StoreKey cell_key(const CellSpec& cell, std::uint64_t trial_seed_value) {
  KeyBuilder b;
  b.add("proto", std::string_view(cell.protocol));
  b.add("graph", cell.graph);
  b.add("source", static_cast<std::uint64_t>(cell.source));
  b.add("max_rounds", static_cast<std::int64_t>(cell.max_rounds));
  b.add("kind", std::string_view(cell.kind));
  b.add("faults", std::string_view(cell.faults));
  b.add("model", std::string_view(cell.model));
  b.add("trial_seed", trial_seed_value);
  return b.digest();
}

}  // namespace latgossip
