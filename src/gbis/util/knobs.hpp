// Run-time knobs as data: one row per `gbis` flag / GBIS_* environment
// variable, holding the flag, the variable, the value parser bound to
// the field it fills, and the --help line. One env pass, one flag
// parser and one help renderer serve every table, so a flag and its
// variable accept exactly the same values and --help cannot drift from
// the parsers. Each table sits next to the struct it fills.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gbis {

/// Parses `text` into the field the setter is bound to. Returns "" on
/// success; otherwise leaves the field untouched and says what was
/// expected.
using KnobSetter = std::function<std::string(const std::string& text)>;

struct Knob {
  const char* flag;  ///< "--cache-mb"; nullptr = environment only
  const char* env;   ///< "GBIS_SVC_CACHE_MB"; nullptr = flag only
  const char* arg;   ///< value placeholder for --help; nullptr for a switch
  const char* help;  ///< --help text, default included
  KnobSetter set;
  /// A bare switch flag stands for this value (--no-warm is "0").
  const char* preset = nullptr;
};
using KnobTable = std::vector<Knob>;

// Value parsers. Each binds the field it fills.

/// Decimal digits only (no sign, space or suffix) in [lo, hi].
KnobSetter whole_into(std::function<void(std::uint64_t)> store,
                      std::uint64_t lo, std::uint64_t hi);
template <class Int>
KnobSetter whole(Int& field, std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<Int>::max()) {
  return whole_into(
      [&field](std::uint64_t v) { field = static_cast<Int>(v); }, lo, hi);
}
/// Whole mebibytes stored as bytes; a count whose byte size would wrap
/// 64 bits is rejected.
KnobSetter mebibytes(std::uint64_t& bytes);
/// A number (strtod syntax) >= 0, or > 0 when `strict`.
KnobSetter non_negative(double& field, bool strict = false);
inline KnobSetter positive(double& field) { return non_negative(field, true); }
/// Any non-empty text (paths, directories).
KnobSetter path(std::string& field);

/// Exactly one of the listed names.
template <class T>
KnobSetter one_of(T& field, std::vector<std::pair<std::string, T>> names) {
  return [&field, names = std::move(names)](const std::string& text) {
    std::string expected;
    for (const auto& [name, value] : names) {
      if (text == name) {
        field = value;
        return std::string();
      }
      expected += (expected.empty() ? "expected " : "|") + name;
    }
    return expected;
  };
}
inline KnobSetter zero_one(bool& field) {
  return one_of(field, {{"0", false}, {"1", true}});
}

/// A spec in `Plan::parse`'s grammar; its std::invalid_argument text is
/// the reason.
template <class Plan>
KnobSetter grammar(Plan& field) {
  return [&field](const std::string& text) {
    try {
      field = Plan::parse(text);
      return std::string();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
  };
}

/// Applies every row variable that is set. A malformed value warns once
/// on stderr — `gbis: ignoring malformed NAME="TEXT" (REASON; keeping
/// default)` — and leaves the field at its default.
void apply_env(const KnobTable& rows);

/// Applies every row flag in `args` (a value row consumes the next
/// argument) and returns the other arguments in order. A malformed or
/// missing value throws std::invalid_argument (a usage error).
std::vector<std::string> apply_flags(const KnobTable& rows,
                                     const std::vector<std::string>& args);

/// --help: one wrapped block per row, indented by `indent`: the flag
/// (or NAME=ARG for a variable-only row), its help, and "[env NAME]".
void print_knob_help(std::ostream& out, const KnobTable& rows,
                     std::size_t indent);

}  // namespace gbis
