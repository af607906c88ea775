#include "gbis/obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

constexpr const char* kSubSpanNames[] = {"kl.pass", "sa.temp", "fm.pass",
                                         "po.pass"};

}  // namespace

std::uint64_t to_us(double seconds) {
  if (!(seconds > 0)) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

const char* span_name_for_trace_source(TraceSource source) {
  return kSubSpanNames[static_cast<std::size_t>(source)];
}

std::string encode_span_set(const SpanSet& set, const char* state) {
  std::string line = "{\"state\":\"";
  line += state;
  line += "\",\"trace\":\"" + to_hex16(set.trace_id) + "\"";
  line += ",\"seq\":" + std::to_string(set.seq);
  line += ",\"id\":";
  append_json_string(line, set.id);
  line += ",\"op\":";
  append_json_string(line, set.op);
  line += ",\"status\":";
  append_json_string(line, set.status);
  line += ",\"spans\":[";
  bool first = true;
  for (const SpanRec& span : set.spans) {
    if (!first) line += ",";
    first = false;
    line += "{\"name\":";
    append_json_string(line, span.name);
    if (span.has_step) line += ",\"step\":" + std::to_string(span.step);
    if (span.has_value) line += ",\"cut\":" + std::to_string(span.value);
    if (span.has_aux) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", span.aux);
      line += ",\"temp\":";
      line += buf;
    }
    // Timing keys last in each span object (the repo-wide "_us"
    // convention), so one strip pattern recovers the deterministic
    // bytes.
    line += ",\"t_start_us\":" + std::to_string(to_us(span.start_seconds));
    line += ",\"t_dur_us\":" + std::to_string(to_us(span.duration_seconds));
    line += "}";
  }
  line += "]}";
  return line;
}

SpanBuffer::SpanBuffer(std::vector<SpanRec>* dest, std::uint32_t capacity)
    : dest_(dest), decimator_(capacity) {}

void SpanBuffer::offer(SpanRec rec) {
#ifndef GBIS_DISABLE_OBS
  if (dest_ == nullptr) return;
  if (!decimator_.admit(*dest_)) return;
  dest_->push_back(std::move(rec));
#else
  (void)rec;
#endif
}

void write_span_chrome_trace(std::ostream& out,
                             std::span<const SpanSet> sets) {
  std::string text = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* separator = "\n";
  for (const SpanSet& set : sets) {
    const std::string tag = "\"trace\":\"" + to_hex16(set.trace_id) +
                            "\",\"seq\":" + std::to_string(set.seq);
    double begin = set.spans.empty() ? 0 : set.spans.front().start_seconds;
    double end = begin;
    for (const SpanRec& span : set.spans) {
      begin = std::min(begin, span.start_seconds);
      end = std::max(end, span.start_seconds + span.duration_seconds);
    }
    text += separator;
    separator = ",\n";
    text += "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":" +
            std::to_string(to_us(begin)) +
            ",\"dur\":" + std::to_string(to_us(end - begin)) +
            ",\"pid\":0,\"tid\":0,\"args\":{" + tag + ",\"id\":";
    append_json_string(text, set.id);
    text += ",\"op\":";
    append_json_string(text, set.op);
    text += ",\"status\":";
    append_json_string(text, set.status);
    text += "}}";
    for (const SpanRec& span : set.spans) {
      text += ",\n{\"name\":";
      append_json_string(text, span.name);
      text += ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" +
              std::to_string(to_us(span.start_seconds)) +
              ",\"dur\":" + std::to_string(to_us(span.duration_seconds)) +
              ",\"pid\":0,\"tid\":0,\"args\":{" + tag;
      if (span.has_step) text += ",\"step\":" + std::to_string(span.step);
      if (span.has_value) text += ",\"cut\":" + std::to_string(span.value);
      text += "}}";
    }
  }
  out << text << "\n]}\n";
}

}  // namespace gbis
