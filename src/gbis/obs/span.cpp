#include "gbis/obs/span.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "gbis/util/json_lite.hpp"

namespace gbis {

namespace {

std::uint64_t span_to_us(double seconds) {
  if (!(seconds > 0)) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

constexpr const char* kSubSpanNames[] = {"kl.pass", "sa.temp", "fm.pass",
                                         "po.pass"};

}  // namespace

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
    line += ",\"t_start_us\":" + std::to_string(span_to_us(span.start_seconds));
    line += ",\"t_dur_us\":" + std::to_string(span_to_us(span.duration_seconds));
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
                             const std::deque<SpanSet>& sets) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanSet& set : sets) {
    for (const SpanRec& span : set.spans) {
      if (!first) out << ",";
      first = false;
      out << "\n{\"name\":\"" << span.name
          << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":"
          << span_to_us(span.start_seconds)
          << ",\"dur\":" << span_to_us(span.duration_seconds)
          << ",\"pid\":0,\"tid\":0,\"args\":{\"trace\":\""
          << to_hex16(set.trace_id) << "\",\"seq\":" << set.seq;
      if (span.has_step) out << ",\"step\":" << span.step;
      if (span.has_value) out << ",\"cut\":" << span.value;
      out << "}}";
    }
  }
  out << "\n]}\n";
}

}  // namespace gbis
