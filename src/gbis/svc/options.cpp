// The SvcOptions knob rows: every `gbis serve` flag that fills
// SvcOptions and its GBIS_SVC_* environment form.
#include "gbis/svc/scheduler.hpp"

namespace gbis {

KnobTable svc_knobs(SvcOptions& o) {
  constexpr std::uint64_t kMaxMib = ~std::uint64_t{0} >> 20;
  return {
      {"--batch", nullptr, "N", "dispatch window / coalescing width (16)",
       whole(o.batch_size, 1)},
      {"--max-queue", nullptr, "N",
       "admission bound; overflow is rejected (256)", whole(o.max_queue, 1)},
      {"--cache-mb", "GBIS_SVC_CACHE_MB", "N",
       "result-cache budget in MiB, 0 = off (64)", mebibytes(o.cache_bytes)},
      {"--cache-file", "GBIS_SVC_CACHE_FILE", "F",
       "durable result-cache journal; a restart replays it so pre-crash "
       "solves answer as byte-identical warm hits",
       path(o.cache_file)},
      {"--graph-mb", "GBIS_SVC_GRAPH_MB", "N",
       "graph-store budget in MiB for graphs referenced by fingerprint "
       "(256)",
       mebibytes(o.graph_store_bytes)},
      {"--no-warm", "GBIS_SVC_WARM", nullptr,
       "disable lineage warm-start solves; every solve runs the cold "
       "portfolio",
       zero_one(o.warm), "0"},
      {"--no-brownout", "GBIS_SVC_BROWNOUT", nullptr,
       "disable the overload brownout ladder", zero_one(o.brownout), "0"},
      {"--brownout-window", "GBIS_SVC_BROWNOUT_WINDOW", "N",
       "cold solves in the deadline-miss window the brownout controller "
       "watches (32)",
       whole(o.brownout_window, 1)},
      {"--budget", nullptr, "N", "default trials per solve request (2)",
       whole(o.default_budget, 1)},
      {"--quality", "GBIS_SVC_QUALITY", "Q",
       "default ladder rung for auto solves: fast|balanced|best (best)",
       one_of(o.default_quality, {{"fast", QualityTier::kFast},
                                  {"balanced", QualityTier::kBalanced},
                                  {"best", QualityTier::kBest}})},
      {"--deadline", nullptr, "S",
       "default per-request deadline in seconds (none)",
       non_negative(o.default_deadline_seconds)},
      {"--access-log", "GBIS_SVC_ACCESS_LOG", "F",
       "append one JSON line per request to F", path(o.access_log_path)},
      {"--access-log-max-mb", "GBIS_SVC_ACCESS_LOG_MAX_MB", "N",
       "rotate the access log to F.1 when appending would cross N MiB (0 = "
       "unbounded)",
       whole(o.access_log_max_mb, 0, kMaxMib)},
      {"--flight-file", "GBIS_SVC_FLIGHT", "F",
       "arm the flight recorder: SIGQUIT and the crash path dump recent + "
       "in-flight request spans to F as JSONL",
       path(o.flight_file)},
      {"--flight-ring", "GBIS_SVC_FLIGHT_RING", "N",
       "completed span sets the recorder retains (64)",
       whole(o.flight_ring, 1)},
      {"--slow-ms", "GBIS_SVC_SLOW_MS", "M",
       "sample requests slower than M ms into <trace-dir>/trace.json (0 = "
       "all)",
       non_negative(o.slow_ms)},
      svc_fault_plan_knob(o.faults),
  };
}

SvcOptions svc_options_from_env(SvcOptions base) {
  apply_env(svc_knobs(base));
  return base;
}

}  // namespace gbis
