#pragma once
// JSON for the experiment store and the serve wire protocol: one pull
// reader, a document tree built with it, and a serializer.
//
// The rest of the codebase only ever *emits* JSON (hand-built strings in
// obs/export); the store is the first subsystem that has to read it
// back: log replay on open, requests arriving over the serve socket,
// and cached spread-curve payloads. JsonReader is the codebase's one
// JSON grammar (RFC 8259, depth-capped): a pull reader over a
// string_view that hands out member names, strings, numbers, booleans
// and null one at a time, or skips a value. Log replay walks each
// record with it directly, writing fields into place without building
// a tree; json_parse builds a JsonValue tree with it for requests and
// record meta. Tree objects keep insertion order (round-trip friendly)
// and lookups are linear, which is fine at the handful-of-fields scale
// of query requests.
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

  // Typed member accessors with defaults, the shape serve's request
  // fields want: an absent member reads as `def`, and a member of the
  // wrong type throws std::invalid_argument naming it ("trials must be
  // an integer"), so a mistyped field is a bad request, never a default.
  // get_i64 wants an integer literal that fits in int64, get_u64 one
  // that is also nonnegative, get_double any number.
  std::int64_t get_i64(std::string_view key, std::int64_t def) const;
  std::uint64_t get_u64(std::string_view key, std::uint64_t def) const;
  double get_double(std::string_view key, double def) const;
  bool get_bool(std::string_view key, bool def) const;
  std::string get_string(std::string_view key, std::string_view def) const;

  // Construction (JsonReader::read_value + tests).
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

/// Pull reader over one JSON text. Each read consumes the next value
/// (after whitespace) and returns false on a syntax error; the first
/// error sticks, every later read fails too, and error() describes it
/// as "<what> at byte N". Values nest at most 64 levels deep, so a
/// hostile "[[[[…" frame cannot exhaust the stack of a recursive
/// consumer. Numbers follow RFC 8259 (no '+', no leading zeros, digits
/// on both sides of '.') and must lie in double's range: a literal that
/// would read as infinity, or as zero though it is not, is an error.
///
/// String views handed out (member names, string values) point into
/// the text, or into the reader's scratch buffer when the string had
/// escapes; either way they stay valid only until the next read.
class JsonReader {
 public:
  /// One number literal: `integral` iff it has no fraction or exponent
  /// and fits in int64, in which case `integer` holds it exactly;
  /// `value` always holds it as a double.
  struct Number {
    double value = 0.0;
    std::int64_t integer = 0;
    bool integral = false;
  };

  explicit JsonReader(std::string_view text) noexcept : text_(text) {}

  /// Kind of the next value, judged by its first byte; consumes only
  /// the whitespace before it.
  bool peek(JsonValue::Kind& kind);

  /// Object: begin_object() consumes '{'; each next_member() call then
  /// consumes `"name":` and yields the name (the caller reads or skips
  /// the value) or consumes the closing '}' and returns false. After the
  /// loop, ok() tells the closing brace from an error.
  bool begin_object();
  bool next_member(std::string_view& name);

  /// Array: begin_array() consumes '['; next_item() returns true when an
  /// item follows (the caller reads or skips it) and false after ']'.
  bool begin_array();
  bool next_item();

  bool read_string(std::string_view& out);
  bool read_number(Number& out);
  bool read_bool(bool& out);
  bool read_null();
  /// The next value as a tree (for json_parse and embedded payloads).
  bool read_value(JsonValue& out);
  /// Consume the next value, checked as strictly as read_value checks
  /// it (only records' rare unknown or mistyped members are skipped).
  bool skip_value();

  /// Only whitespace may follow the values read so far.
  bool finish();

  bool ok() const noexcept { return error_ == nullptr; }
  /// "<what> at byte N", or "" while ok().
  std::string error() const;

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what);
  bool start_value();
  void skip_ws();
  bool eat(char c);
  bool literal(std::string_view lit);
  bool string_body(std::string_view& out);
  bool escaped_string(std::size_t begin, std::string_view& out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;           ///< containers open around the next value
  bool first_ = false;      ///< just after '{' or '[' (no ',' expected)
  const char* error_ = nullptr;
  std::size_t error_pos_ = 0;
  std::string scratch_;     ///< decoded form of an escaped string
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
