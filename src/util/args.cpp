#include "util/args.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace latgossip {

namespace {

[[noreturn]] void bad_value(const std::string& flag, const char* what,
                            const std::string& text) {
  throw std::invalid_argument("--" + flag + ": " + what + ": '" + text + "'");
}

/// from_chars over the whole of `text`: no sign but '-', no whitespace,
/// nothing after the number.
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range)
    bad_value(flag, "out of range", text);
  if (ec != std::errc() || ptr != end) bad_value(flag, what, text);
  return value;
}

}  // namespace

std::int64_t parse_int_flag(const std::string& flag, const std::string& text) {
  return parse_number<std::int64_t>(flag, text, "not an integer");
}

double parse_double_flag(const std::string& flag, const std::string& text) {
  const double v = parse_number<double>(flag, text, "not a number");
  if (!std::isfinite(v)) bad_value(flag, "out of range", text);
  return v;
}

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_int_flag(name, it->second);
}

double Args::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_double_flag(name, it->second);
}

bool Args::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void Args::allow_only(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    bool ok = false;
    for (const auto& k : known)
      if (k == name) {
        ok = true;
        break;
      }
    if (!ok) throw std::invalid_argument("unknown flag --" + name);
  }
}

}  // namespace latgossip
