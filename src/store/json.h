#pragma once
// Minimal JSON document parser for the experiment store and the serve
// wire protocol.
//
// The rest of the codebase only ever *emits* JSON (hand-built strings in
// obs/export); the store is the first subsystem that has to read it
// back: log replay on open, requests arriving over the serve socket,
// and cached spread-curve payloads. This is a small recursive-descent
// parser for exactly that — no streaming, no SAX, no allocator
// cleverness. Documents are parsed into a JsonValue tree;
// objects keep insertion order (round-trip friendly) and lookups are
// linear, which is fine at the handful-of-fields scale of store records
// and query requests.
//
// Integers are kept exact: a number token with no '.', 'e' or 'E' is
// stored as int64 (as well as double), so 64-bit counters survive a
// parse → reserialize round trip bit-for-bit. Fingerprints avoid the
// issue entirely — they travel as "0x…" hex strings, same as in run
// manifests.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace latgossip {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const noexcept { return boolean_; }
  double as_double() const noexcept { return number_; }
  /// True iff the source token was an integer literal (no fraction or
  /// exponent) that fits in int64 — the exact-round-trip path.
  bool is_integer() const noexcept { return is_number() && integral_; }
  std::int64_t as_i64() const noexcept { return integer_; }
  std::uint64_t as_u64() const noexcept {
    return static_cast<std::uint64_t>(integer_);
  }
  const std::string& as_string() const noexcept { return string_; }

  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Object member by key, or nullptr (also for non-objects). Linear
  /// scan; store records and requests have < 20 fields.
  const JsonValue* get(std::string_view key) const noexcept;

  // Typed member accessors with defaults — the shape every store/server
  // read site wants ("field if present and of this type, else default").
  std::int64_t get_i64(std::string_view key, std::int64_t def) const noexcept;
  std::uint64_t get_u64(std::string_view key, std::uint64_t def) const noexcept;
  double get_double(std::string_view key, double def) const noexcept;
  bool get_bool(std::string_view key, bool def) const noexcept;
  std::string get_string(std::string_view key, std::string_view def) const;

  // Construction (parser + tests).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_integer(std::int64_t i);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool boolean_ = false;
  bool integral_ = false;
  double number_ = 0.0;
  std::int64_t integer_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one complete JSON document (leading/trailing whitespace
/// allowed, trailing garbage rejected). Returns nullopt on any syntax
/// error; `error`, when non-null, receives a one-line description with
/// a byte offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

/// Compact (no-whitespace) serialization. Integer-literal numbers
/// round-trip exactly; other doubles print with %.17g.
std::string json_serialize(const JsonValue& value);

}  // namespace latgossip
