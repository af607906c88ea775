#include "gbis/obs/trace_export.hpp"

#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "gbis/harness/stats.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/obs/trace.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

void write_us(std::ostream& out, double seconds) {
  const auto precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << seconds * 1e6;
  out.precision(precision);
}

}  // namespace

MetricsReport build_metrics_report(std::span<const TrialResult> results) {
  MetricsReport report;
  report.trials = results.size();
  std::vector<double> cpu;
  std::vector<double> cuts;
  cpu.reserve(results.size());
  for (const TrialResult& result : results) {
    switch (result.status) {
      case TrialStatus::kOk: ++report.ok; break;
      case TrialStatus::kFailed: ++report.failed; break;
      case TrialStatus::kTimedOut: ++report.timed_out; break;
      case TrialStatus::kSkipped: ++report.skipped; break;
    }
    if (result.status != TrialStatus::kSkipped) {
      cpu.push_back(result.cpu_seconds);
    }
    if (result.status == TrialStatus::kOk) {
      cuts.push_back(static_cast<double>(result.cut));
    }
    if (result.metrics != nullptr) {
      ++report.collected;
      merge_metric_summaries(report.totals, *result.metrics);
    }
  }
  const Summary cpu_summary = summarize(cpu);
  report.cpu_min = cpu_summary.min;
  report.cpu_max = cpu_summary.max;
  report.cpu_mean = cpu_summary.mean;
  report.cpu_p50 = percentile(cpu, 50);
  report.cpu_p90 = percentile(cpu, 90);
  report.cpu_p99 = percentile(cpu, 99);
  const Summary cut_summary = summarize(cuts);
  report.cut_min = cut_summary.min;
  report.cut_max = cut_summary.max;
  report.cut_mean = cut_summary.mean;
  report.cut_p50 = percentile(cuts, 50);
  report.cut_p90 = percentile(cuts, 90);
  return report;
}

void write_chrome_trace(std::ostream& out,
                        std::span<const TrialResult> results,
                        std::span<const TrialSpec> trials) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto begin_event = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& result = results[i];
    if (result.metrics == nullptr) continue;
    const TrialMetrics& tm = *result.metrics;
    const TrialSpec& spec = trials[i];

    std::string name;
    append_json_string(name, method_name(spec.method) + " g" +
                                 std::to_string(spec.graph_index) + " s" +
                                 std::to_string(spec.start_index));
    begin_event();
    out << "{\"name\":" << name
        << ",\"cat\":\"trial\",\"ph\":\"X\",\"ts\":";
    write_us(out, tm.start_offset_seconds);
    out << ",\"dur\":";
    write_us(out, tm.wall_seconds);
    out << ",\"pid\":0,\"tid\":" << tm.tid << ",\"args\":{\"trial\":" << i
        << ",\"status\":\"" << trial_status_name(result.status) << "\"";
    if (result.status == TrialStatus::kOk) {
      out << ",\"cut\":" << result.cut;
    }
    if (!result.error.empty()) {
      std::string error;
      append_json_string(error, result.error);
      out << ",\"error\":" << error;
    }
    out << "}}";

    for (const PhaseSpan& span : tm.phases) {
      begin_event();
      out << "{\"name\":\"" << phase_name(span.phase)
          << "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":";
      write_us(out, tm.start_offset_seconds + span.start_seconds);
      out << ",\"dur\":";
      write_us(out, span.duration_seconds);
      out << ",\"pid\":0,\"tid\":" << tm.tid
          << ",\"args\":{\"trial\":" << i << "}}";
    }
  }
  out << "\n]}\n";
}

void export_observability(const ObsOptions& obs,
                          std::span<const TrialResult> results,
                          std::span<const TrialSpec> trials) {
  if (!obs.metrics_path.empty()) {
    std::ofstream out(obs.metrics_path, std::ios::trunc);
    if (!out) throw IoError("metrics: cannot open " + obs.metrics_path);
    write_metrics_json(out, build_metrics_report(results));
    out.flush();
    if (!out) throw IoError("metrics: write failed: " + obs.metrics_path);
  }
  if (!obs.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(obs.trace_dir, ec);
    if (ec) {
      throw IoError("trace: cannot create directory " + obs.trace_dir +
                    ": " + ec.message());
    }
    const std::filesystem::path dir(obs.trace_dir);
    const struct {
      const char* name;
      void (*write)(std::ostream&, std::span<const TrialResult>,
                    std::span<const TrialSpec>);
    } files[] = {
        {"convergence.jsonl", &write_convergence_jsonl},
        {"convergence.csv", &write_convergence_csv},
        {"trace.json", &write_chrome_trace},
    };
    for (const auto& file : files) {
      const std::string path = (dir / file.name).string();
      std::ofstream out(path, std::ios::trunc);
      if (!out) throw IoError("trace: cannot open " + path);
      file.write(out, results, trials);
      out.flush();
      if (!out) throw IoError("trace: write failed: " + path);
    }
  }
}

}  // namespace gbis
