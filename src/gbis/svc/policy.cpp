#include "gbis/svc/policy.hpp"

#include <algorithm>
#include <limits>
#include <new>
#include <tuple>

#include "gbis/rng/splitmix.hpp"

namespace gbis {

std::span<const Method> policy_portfolio() {
  return quality_portfolio(QualityTier::kBest);
}

namespace {

/// Parked spans allowed per lane. A lane that would find no room to
/// park its next trial stops claiming instead of waiting.
constexpr std::size_t kParkedPerLane = 4;

/// Converts one trial's bounded convergence trace into request-trace
/// sub-spans: a "trial" header span, then one span per kept trace
/// point, all stamped at the trial's start offset. The SpanBuffer
/// applies its own second-level decimation, so a budget-heavy request
/// still yields a bounded, thread-count-invariant span list.
void append_trial_spans(std::vector<SpanRec>& out, std::uint64_t trial,
                        std::int64_t cut, const TrialMetrics& tm,
                        double trial_start, double trial_wall) {
  SpanRec header;
  header.name = "trial";
  header.step = trial;
  header.has_step = true;
  header.value = cut;
  header.has_value = cut >= 0;
  header.start_seconds = trial_start;
  header.duration_seconds = trial_wall;
  out.push_back(std::move(header));
  for (const TracePoint& pt : tm.trace) {
    SpanRec rec;
    rec.name = span_name_for_trace_source(pt.source);
    rec.step = pt.step;
    rec.has_step = true;
    rec.value = pt.cut;
    rec.has_value = true;
    if (pt.source == TraceSource::kSa) {
      rec.aux = pt.aux;
      rec.has_aux = true;
    }
    rec.start_seconds = trial_start;
    out.push_back(std::move(rec));
  }
}

/// Records a failed or timed-out trial's text if it is the lane's
/// first (serially: the first non-empty text in trial order).
void note_error(PolicyResult& result, std::uint64_t& error_trial,
                std::uint64_t trial, const char* what, bool oom = false) {
  if (!result.first_error.empty()) return;
  result.first_error = what;
  result.oom = oom;
  error_trial = trial;
}

}  // namespace

PolicyRun::PolicyRun(const Graph& g, const PolicySpec& spec,
                     std::uint64_t seed, const RunConfig& base,
                     bool keep_sides, std::uint32_t lanes,
                     const std::atomic<bool>* stop, SpanBuffer* spans)
    : graph_(g),
      spec_(spec),
      seed_(seed),
      config_(base),
      keep_sides_(keep_sides),
      stop_(stop),
      spans_(spans != nullptr && spans->bound() ? spans : nullptr),
      portfolio_(quality_portfolio(spec.quality)),
      partials_(std::max<std::uint32_t>(lanes, 1)),
      parked_capacity_(kParkedPerLane * partials_.size()) {
  config_.obs = ObsOptions{};  // the service keeps its own counters
  config_.metrics = nullptr;
  for (Partial& partial : partials_) {
    partial.result.best_cut = std::numeric_limits<Weight>::max();
  }
  parked_.reserve(parked_capacity_);
}

bool PolicyRun::start(const StartHook& on_start) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!started_) {
    started_ = true;
    // One deadline for the whole request, shared by every lane.
    deadline_ = spec_.deadline_seconds > 0
                    ? Deadline::after(spec_.deadline_seconds)
                    : Deadline();
    if (on_start) {
      try {
        on_start(deadline_);
      } catch (...) {
        error_ = std::current_exception();
      }
    }
  }
  return error_ == nullptr;
}

void PolicyRun::run_lane(std::uint32_t lane, const StartHook& on_start) {
  if (!start(on_start)) return;
  RunConfig config = config_;
  config.kl.deadline = deadline_;
  config.sa.deadline = deadline_;
  config.fm.deadline = deadline_;
  config.path.deadline = deadline_;
  Partial& partial = partials_[lane];
  for (;;) {
    if (spans_ != nullptr && !may_claim()) return;
    const std::uint64_t trial =
        next_trial_.fetch_add(1, std::memory_order_relaxed);
    if (trial >= spec_.budget) return;
    std::vector<SpanRec> trial_spans;
    try {
      run_trial(trial, config, partial, trial_spans);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
    // Every claimed trial retires, run or not, so the span frontier
    // always advances.
    if (spans_ != nullptr) retire(trial, std::move(trial_spans));
  }
}

bool PolicyRun::may_claim() {
  // Other lanes hold at most lanes - 1 trials in flight, and each parks
  // at most once, so claiming only while this holds keeps parked_
  // within its capacity. A lane that stops has nothing in flight; the
  // lane running the earliest unretired trial drains the parked spans
  // and claims on, and once nothing is parked every lane may claim, so
  // every trial still runs.
  const std::lock_guard<std::mutex> lock(mutex_);
  return parked_.size() + partials_.size() <= parked_capacity_;
}

void PolicyRun::run_trial(std::uint64_t trial, RunConfig& config,
                          Partial& partial,
                          std::vector<SpanRec>& trial_spans) {
  PolicyResult& result = partial.result;
  const Method method =
      spec_.portfolio ? portfolio_[trial % portfolio_.size()] : spec_.method;
  if (stop_ != nullptr && stop_->load(std::memory_order_acquire)) {
    ++result.skipped;
    return;
  }
  if (deadline_.expired()) {
    // Budget the request can no longer spend: count the remaining
    // trials timed out without paying for their generation phases.
    ++result.timed_out;
    note_error(result, partial.error_trial, trial, "deadline exceeded");
    return;
  }
  const CpuTimer timer;
  // Tracing binds a throwaway per-trial sink so the trial's
  // convergence trace becomes its sub-spans; the service's own
  // counters stay untouched either way.
  TrialMetrics trial_metrics;
  MetricsSink trial_sink(&trial_metrics, 64);
  MetricsSink* sink = spans_ != nullptr ? &trial_sink : nullptr;
  config.kl.metrics = sink;
  config.sa.metrics = sink;
  config.fm.metrics = sink;
  config.path.metrics = sink;
  config.compaction.metrics = sink;
  config.multilevel.metrics = sink;
  const double trial_start = clock_.elapsed_seconds();
  std::int64_t trial_cut = -1;
  try {
    Rng rng(splitmix64_at(seed_, trial));
    const Bisection b = run_one_start(graph_, method, rng, config);
    trial_cut = b.cut();
    if (b.cut() < result.best_cut) {
      result.best_cut = b.cut();
      result.best_method = method;
      partial.best_trial = trial;
      if (keep_sides_) {
        result.best_sides.assign(b.sides().begin(), b.sides().end());
      }
    }
    ++result.ok;
  } catch (const DeadlineExceeded& error) {
    ++result.timed_out;
    note_error(result, partial.error_trial, trial, error.what());
  } catch (const std::bad_alloc& error) {
    ++result.failed;
    note_error(result, partial.error_trial, trial, error.what(), true);
  } catch (const std::exception& error) {
    ++result.failed;
    note_error(result, partial.error_trial, trial, error.what());
  } catch (...) {
    ++result.failed;
    note_error(result, partial.error_trial, trial, "unknown exception");
  }
  result.cpu_seconds += timer.elapsed_seconds();
  if (spans_ != nullptr) {
    append_trial_spans(trial_spans, trial, trial_cut, trial_metrics,
                       trial_start, clock_.elapsed_seconds() - trial_start);
  }
}

void PolicyRun::retire(std::uint64_t trial, std::vector<SpanRec> trial_spans) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (trial != next_retire_) {
    // Within the reserved capacity (may_claim): never reallocates.
    parked_.push_back({trial, std::move(trial_spans)});
    return;
  }
  offer_locked(trial_spans);
  ++next_retire_;
  for (std::size_t k = 0; k < parked_.size();) {
    if (parked_[k].trial != next_retire_) {
      ++k;
      continue;
    }
    offer_locked(parked_[k].spans);
    ++next_retire_;
    parked_[k] = std::move(parked_.back());
    parked_.pop_back();
    k = 0;  // the next trial may sit anywhere
  }
}

void PolicyRun::offer_locked(std::vector<SpanRec>& trial_spans) {
  try {
    for (SpanRec& rec : trial_spans) spans_->offer(std::move(rec));
  } catch (...) {
    if (error_ == nullptr) error_ = std::current_exception();
  }
}

PolicyResult PolicyRun::reduce() {
  if (error_ != nullptr) std::rethrow_exception(error_);
  PolicyResult result;
  result.best_cut = std::numeric_limits<Weight>::max();
  std::uint64_t best_trial = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t error_trial = std::numeric_limits<std::uint64_t>::max();
  for (Partial& partial : partials_) {
    PolicyResult& lane = partial.result;
    if (lane.ok > 0 && std::tie(lane.best_cut, partial.best_trial) <
                           std::tie(result.best_cut, best_trial)) {
      result.best_cut = lane.best_cut;
      result.best_method = lane.best_method;
      result.best_sides = std::move(lane.best_sides);
      best_trial = partial.best_trial;
    }
    if (!lane.first_error.empty() && partial.error_trial < error_trial) {
      result.first_error = std::move(lane.first_error);
      result.oom = lane.oom;
      error_trial = partial.error_trial;
    }
    result.ok += lane.ok;
    result.failed += lane.failed;
    result.timed_out += lane.timed_out;
    result.skipped += lane.skipped;
    result.cpu_seconds += lane.cpu_seconds;
  }

  if (result.ok > 0) {
    result.status = TrialStatus::kOk;
  } else {
    result.best_cut = 0;  // no valid cut; callers must consult status
    if (result.failed > 0) {
      result.status = TrialStatus::kFailed;
    } else if (result.timed_out > 0) {
      result.status = TrialStatus::kTimedOut;
    } else {
      result.status = TrialStatus::kSkipped;
    }
  }
  return result;
}

PolicyResult run_policy(const Graph& g, const PolicySpec& spec,
                        std::uint64_t seed, const RunConfig& base,
                        bool keep_sides, const std::atomic<bool>* stop,
                        SpanBuffer* spans) {
  PolicyRun run(g, spec, seed, base, keep_sides, 1, stop, spans);
  run.run_lane(0);
  return run.reduce();
}

}  // namespace gbis
