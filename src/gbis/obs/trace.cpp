#include "gbis/obs/trace.hpp"

#include <limits>
#include <ostream>

#include "gbis/io/io_error.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

void write_aux(std::ostream& out, double aux) {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << aux;
  out.precision(precision);
}

[[noreturn]] void bad_field(const char* key, const std::string& line) {
  throw IoError("convergence: bad or missing \"" + std::string(key) +
                "\" in: " + line);
}

/// One field of a convergence line through the shared flat-JSON
/// scanner; a missing or malformed value throws naming the field.
template <class T>
T field(const std::string& line, const char* key,
        bool (*parse)(const std::string&, const std::string&, T&)) {
  T value{};
  if (!parse(line, key, value)) bad_field(key, line);
  return value;
}

/// Graph and start indices are 32-bit: a larger value is malformed,
/// not truncated.
std::uint32_t field_u32(const std::string& line, const char* key) {
  const std::uint64_t value = field(line, key, json_parse_u64);
  if (value > std::numeric_limits<std::uint32_t>::max()) bad_field(key, line);
  return static_cast<std::uint32_t>(value);
}

TraceSource source_from_name(const std::string& name,
                             const std::string& line) {
  if (name == "kl") return TraceSource::kKl;
  if (name == "sa") return TraceSource::kSa;
  if (name == "fm") return TraceSource::kFm;
  if (name == "po") return TraceSource::kPo;
  throw IoError("convergence: unknown source \"" + name + "\" in: " + line);
}

}  // namespace

void write_convergence_jsonl(std::ostream& out,
                             std::span<const TrialResult> results,
                             std::span<const TrialSpec> trials) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialSpec& spec = trials[i];
    const std::string method = method_name(spec.method);
    for (const TracePoint& p : result.metrics->trace) {
      out << "{\"trial\":" << i << ",\"graph\":" << spec.graph_index
          << ",\"method\":\"" << method << "\",\"start\":"
          << spec.start_index << ",\"step\":" << p.step << ",\"source\":\""
          << trace_source_name(p.source) << "\",\"cut\":" << p.cut
          << ",\"best\":" << p.best << ",\"aux\":";
      write_aux(out, p.aux);
      out << "}\n";
    }
  }
}

void write_convergence_csv(std::ostream& out,
                           std::span<const TrialResult> results,
                           std::span<const TrialSpec> trials) {
  out << "trial,graph,method,start,step,source,cut,best,aux\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialSpec& spec = trials[i];
    const std::string method = method_name(spec.method);
    for (const TracePoint& p : result.metrics->trace) {
      out << i << ',' << spec.graph_index << ',' << method << ','
          << spec.start_index << ',' << p.step << ','
          << trace_source_name(p.source) << ',' << p.cut << ',' << p.best
          << ',';
      write_aux(out, p.aux);
      out << '\n';
    }
  }
}

ConvergenceLine parse_convergence_line(const std::string& line) {
  ConvergenceLine parsed;
  parsed.trial = field(line, "trial", json_parse_u64);
  parsed.graph = field_u32(line, "graph");
  parsed.method = field(line, "method", json_parse_string);
  parsed.start = field_u32(line, "start");
  parsed.point.step = field(line, "step", json_parse_u64);
  parsed.point.source =
      source_from_name(field(line, "source", json_parse_string), line);
  parsed.point.cut = field(line, "cut", json_parse_i64);
  parsed.point.best = field(line, "best", json_parse_i64);
  parsed.point.aux = field(line, "aux", json_parse_double);
  return parsed;
}

}  // namespace gbis
