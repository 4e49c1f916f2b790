#include "store/json.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace latgossip {

const JsonValue* JsonValue::get(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

namespace {

[[noreturn]] void wrong_type(std::string_view key, const char* want) {
  throw std::invalid_argument(std::string(key) + " must be " + want);
}

}  // namespace

std::int64_t JsonValue::get_i64(std::string_view key, std::int64_t def) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return def;
  if (!v->is_integer()) wrong_type(key, "an integer");
  return v->as_i64();
}

std::uint64_t JsonValue::get_u64(std::string_view key,
                                 std::uint64_t def) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return def;
  if (!v->is_integer() || v->as_i64() < 0)
    wrong_type(key, "a nonnegative integer");
  return v->as_u64();
}

double JsonValue::get_double(std::string_view key, double def) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return def;
  if (!v->is_number()) wrong_type(key, "a number");
  return v->as_double();
}

bool JsonValue::get_bool(std::string_view key, bool def) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return def;
  if (!v->is_bool()) wrong_type(key, "true or false");
  return v->as_bool();
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view def) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return std::string(def);
  if (!v->is_string()) wrong_type(key, "a string");
  return v->as_string();
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.boolean_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_integer(std::int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(i);
  v.integer_ = i;
  v.integral_ = true;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Bytes that end the plain run of a string: the closing quote, a
/// backslash and the control characters JSON forbids unescaped.
constexpr auto kStringStop = [] {
  std::array<bool, 256> stop{};
  for (int c = 0; c < 0x20; ++c) stop[c] = true;
  stop['"'] = stop['\\'] = true;
  return stop;
}();

}  // namespace

bool JsonReader::fail(const char* what) {
  if (error_ == nullptr) {
    error_ = what;
    error_pos_ = pos_;
  }
  return false;
}

std::string JsonReader::error() const {
  if (error_ == nullptr) return std::string();
  return std::string(error_) + " at byte " + std::to_string(error_pos_);
}

inline void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
    ++pos_;
  }
}

inline bool JsonReader::eat(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

/// Every value read starts here: the sticky error, the depth cap,
/// whitespace, end of input.
inline bool JsonReader::start_value() {
  if (!ok()) return false;
  if (depth_ > kMaxDepth) return fail("nesting too deep");
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  return true;
}

bool JsonReader::peek(JsonValue::Kind& kind) {
  if (!start_value()) return false;
  switch (text_[pos_]) {
    case '{': kind = JsonValue::Kind::kObject; return true;
    case '[': kind = JsonValue::Kind::kArray; return true;
    case '"': kind = JsonValue::Kind::kString; return true;
    case 't':
    case 'f': kind = JsonValue::Kind::kBool; return true;
    case 'n': kind = JsonValue::Kind::kNull; return true;
    default:
      if (text_[pos_] != '-' && !is_digit(text_[pos_]))
        return fail("expected value");
      kind = JsonValue::Kind::kNumber;
      return true;
  }
}

bool JsonReader::begin_object() {
  if (!start_value()) return false;
  if (!eat('{')) return fail("expected object");
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::next_member(std::string_view& name) {
  if (!ok()) return false;
  skip_ws();
  const bool first = std::exchange(first_, false);
  if (eat('}')) {
    --depth_;
    return false;
  }
  if (!first && !eat(',')) return fail("expected ',' or '}'");
  skip_ws();
  if (!eat('"')) return fail("expected string");
  if (!string_body(name)) return false;
  skip_ws();
  if (!eat(':')) return fail("expected ':'");
  return true;
}

bool JsonReader::begin_array() {
  if (!start_value()) return false;
  if (!eat('[')) return fail("expected array");
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::next_item() {
  if (!ok()) return false;
  skip_ws();
  const bool first = std::exchange(first_, false);
  if (eat(']')) {
    --depth_;
    return false;
  }
  if (!first && !eat(',')) return fail("expected ',' or ']'");
  return true;
}

bool JsonReader::read_string(std::string_view& out) {
  if (!start_value()) return false;
  if (!eat('"')) return fail("expected string");
  return string_body(out);
}

/// After the opening quote. A string without escapes is a view of the
/// text; the first backslash switches to decoding into scratch_.
bool JsonReader::string_body(std::string_view& out) {
  const std::size_t begin = pos_;
  while (pos_ < text_.size() &&
         !kStringStop[static_cast<unsigned char>(text_[pos_])])
    ++pos_;
  if (pos_ >= text_.size()) return fail("unterminated string");
  const char c = text_[pos_];
  if (c == '\\') return escaped_string(begin, out);
  ++pos_;
  if (c != '"') return fail("control character in string");
  out = text_.substr(begin, pos_ - 1 - begin);
  return true;
}

bool JsonReader::escaped_string(std::size_t begin, std::string_view& out) {
  scratch_.assign(text_.substr(begin, pos_ - begin));
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      out = scratch_;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20)
      return fail("control character in string");
    if (c != '\\') {
      scratch_ += c;
      continue;
    }
    if (pos_ >= text_.size()) return fail("dangling escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case '/': scratch_ += '/'; break;
      case 'b': scratch_ += '\b'; break;
      case 'f': scratch_ += '\f'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // UTF-8 encode the BMP code point; the exporter only ever
        // emits \u00xx for control bytes, but accept the full plane.
        if (code < 0x80) {
          scratch_ += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch_ += static_cast<char>(0xc0 | (code >> 6));
          scratch_ += static_cast<char>(0x80 | (code & 0x3f));
        } else {
          scratch_ += static_cast<char>(0xe0 | (code >> 12));
          scratch_ += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
          scratch_ += static_cast<char>(0x80 | (code & 0x3f));
        }
        break;
      }
      default: return fail("bad escape");
    }
  }
  return fail("unterminated string");
}

bool JsonReader::read_number(Number& out) {
  if (!start_value()) return false;
  const std::size_t start = pos_;
  const char* const first = text_.data() + start;
  const char* const last = text_.data() + text_.size();
  const char* const int_digits = first + (*first == '-' ? 1 : 0);
  if (int_digits == last || !is_digit(*int_digits))
    return fail(int_digits == first ? "expected number" : "bad number");
  // from_chars takes every digit of the integer part, even past int64
  // range, so its end is the integer part's end.
  std::int64_t integer = 0;
  const std::from_chars_result int_res = std::from_chars(first, last, integer);
  pos_ = static_cast<std::size_t>(int_res.ptr - text_.data());
  if (*int_digits == '0' && int_res.ptr - int_digits > 1)
    return fail("bad number");  // leading zero
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  bool integral = true;
  if (eat('.')) {
    integral = false;
    if (!digits()) return fail("bad number");
  }
  if (eat('e') || eat('E')) {
    integral = false;
    if (!eat('+')) eat('-');
    if (!digits()) return fail("bad number");
  }
  // The literal may not run on into more number characters: "1.2.3"
  // and "1e2e3" are malformed, not a number and garbage.
  if (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
        c == '-')
      return fail("bad number");
  }
  if (integral && int_res.ec == std::errc()) {
    out = Number{static_cast<double>(integer), integer, true};
    return true;
  }
  // A fraction, an exponent, or an integer beyond int64. A literal
  // that would read as infinity, or as zero though it is not, is out of
  // double's range.
  const char* const end = text_.data() + pos_;
  double d = 0.0;
  const std::from_chars_result res = std::from_chars(first, end, d);
  if (res.ec == std::errc::result_out_of_range)
    return fail("number out of range");
  if (res.ec != std::errc() || res.ptr != end) return fail("bad number");
  out = Number{d, 0, false};
  return true;
}

bool JsonReader::literal(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
  pos_ += lit.size();
  return true;
}

bool JsonReader::read_bool(bool& out) {
  if (!start_value()) return false;
  out = text_[pos_] == 't';
  if (out || text_[pos_] == 'f') return literal(out ? "true" : "false");
  return fail("expected boolean");
}

bool JsonReader::read_null() {
  return start_value() && literal("null");
}

bool JsonReader::read_value(JsonValue& out) {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  if (!peek(kind)) return false;
  switch (kind) {
    case JsonValue::Kind::kNull:
      out = JsonValue::make_null();
      return read_null();
    case JsonValue::Kind::kBool: {
      bool b = false;
      if (!read_bool(b)) return false;
      out = JsonValue::make_bool(b);
      return true;
    }
    case JsonValue::Kind::kNumber: {
      Number num;
      if (!read_number(num)) return false;
      out = num.integral ? JsonValue::make_integer(num.integer)
                         : JsonValue::make_number(num.value);
      return true;
    }
    case JsonValue::Kind::kString: {
      std::string_view s;
      if (!read_string(s)) return false;
      out = JsonValue::make_string(std::string(s));
      return true;
    }
    case JsonValue::Kind::kArray: {
      begin_array();
      std::vector<JsonValue> items;
      while (next_item()) {
        items.emplace_back();
        if (!read_value(items.back())) return false;
      }
      if (!ok()) return false;
      out = JsonValue::make_array(std::move(items));
      return true;
    }
    case JsonValue::Kind::kObject: {
      begin_object();
      std::vector<std::pair<std::string, JsonValue>> members;
      std::string_view name;
      while (next_member(name)) {
        members.emplace_back(std::string(name), JsonValue());
        if (!read_value(members.back().second)) return false;
      }
      if (!ok()) return false;
      out = JsonValue::make_object(std::move(members));
      return true;
    }
  }
  return false;
}

bool JsonReader::skip_value() {
  JsonValue ignored;
  return read_value(ignored);
}

bool JsonReader::finish() {
  if (!ok()) return false;
  skip_ws();
  if (pos_ != text_.size()) return fail("trailing garbage");
  return true;
}

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  JsonReader reader(text);
  JsonValue value;
  if (reader.read_value(value) && reader.finish()) return value;
  if (error != nullptr) *error = reader.error();
  return std::nullopt;
}

namespace {

void serialize_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void serialize_value(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      if (v.is_integer())
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v.as_i64()));
      else
        std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
      out += buf;
      break;
    }
    case JsonValue::Kind::kString: serialize_string(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out += ',';
        first = false;
        serialize_value(out, item);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [name, value] : v.members()) {
        if (!first) out += ',';
        first = false;
        serialize_string(out, name);
        out += ':';
        serialize_value(out, value);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(out, value);
  return out;
}

}  // namespace latgossip
