#pragma once
// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports --name=value plus boolean --flag; anything else is
// positional. allow_only() lets binaries reject typo'd flags. Numeric
// getters are strict: an empty value, trailing characters or a value
// out of range throws std::invalid_argument naming the flag.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace latgossip {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Finite values only.
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument if any parsed flag is not in `known`.
  void allow_only(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The numeric parsers behind get_int/get_double, for flags whose value
/// packs several numbers (`--lat-range=LO,HI`): `text` must be exactly
/// one number, and errors name `--flag`.
std::int64_t parse_int_flag(const std::string& flag, const std::string& text);
double parse_double_flag(const std::string& flag, const std::string& text);

}  // namespace latgossip
