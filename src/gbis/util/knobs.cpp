#include "gbis/util/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace gbis {

namespace {

/// The one stderr shape for every malformed GBIS_* value.
void warn_rejected(const char* env, const char* text, const std::string& why) {
  std::cerr << "gbis: ignoring malformed " << env << "=\"" << text << "\" ("
            << why << "; keeping default)\n";
}

/// `head` padded to column `col` (on its own line when it reaches it),
/// then `text` word-wrapped at 72 columns.
void print_wrapped(std::ostream& out, std::string head,
                   const std::string& text, std::size_t col) {
  if (head.size() + 2 > col) {
    out << head << '\n';
    head.clear();
  }
  std::string line = head + std::string(col - head.size(), ' ');
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (line.size() > col && line.size() + 1 + word.size() > 72) {
      out << line << '\n';
      line.assign(col, ' ');
    }
    line += (line.size() > col ? " " : "") + word;
  }
  out << line << '\n';
}

}  // namespace

KnobSetter whole_into(std::function<void(std::uint64_t)> store,
                      std::uint64_t lo, std::uint64_t hi) {
  return [store = std::move(store), lo, hi](const std::string& text) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc() || stop != end || value < lo ||
        value > hi) {
      return "expected an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
    }
    store(value);
    return std::string();
  };
}

KnobSetter mebibytes(std::uint64_t& bytes) {
  return whole_into([&bytes](std::uint64_t mb) { bytes = mb << 20; }, 0,
                    std::numeric_limits<std::uint64_t>::max() >> 20);
}

KnobSetter non_negative(double& field, bool strict) {
  return [&field, strict](const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(strict ? value > 0 : value >= 0)) {
      return std::string(strict ? "expected a number > 0"
                                : "expected a number >= 0");
    }
    field = value;
    return std::string();
  };
}

KnobSetter path(std::string& field) {
  return [&field](const std::string& text) {
    if (text.empty()) return std::string("expected a non-empty path");
    field = text;
    return std::string();
  };
}

void apply_env(const KnobTable& rows) {
  for (const Knob& row : rows) {
    const char* text = row.env == nullptr ? nullptr : std::getenv(row.env);
    if (text == nullptr) continue;
    if (const std::string why = row.set(text); !why.empty()) {
      warn_rejected(row.env, text, why);
    }
  }
}

std::vector<std::string> apply_flags(const KnobTable& rows,
                                     const std::vector<std::string>& args) {
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto row = std::find_if(rows.begin(), rows.end(), [&](const Knob& k) {
      return k.flag != nullptr && flag == k.flag;
    });
    if (row == rows.end()) {
      rest.push_back(flag);
      continue;
    }
    if (row->preset == nullptr && i + 1 >= args.size()) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string text = row->preset != nullptr ? row->preset : args[++i];
    if (const std::string why = row->set(text); !why.empty()) {
      throw std::invalid_argument("malformed " + flag + " \"" + text +
                                  "\" (" + why + ")");
    }
  }
  return rest;
}

void print_knob_help(std::ostream& out, const KnobTable& rows,
                     std::size_t indent) {
  for (const Knob& row : rows) {
    std::string head = std::string(indent, ' ');
    std::string text = row.help;
    if (row.flag == nullptr) {
      head += std::string(row.env) + "=" + row.arg;
    } else {
      head += row.flag;
      if (row.preset == nullptr) head += std::string(" ") + row.arg;
      if (row.env != nullptr) {
        text += std::string(" [env ") + row.env +
                (row.preset != nullptr ? std::string("=") + row.preset : "") +
                "]";
      }
    }
    print_wrapped(out, head, text, indent + 16);
  }
}

}  // namespace gbis
