// Budgeted solver policy for the partition service: race the
// portfolio of one quality-vs-latency ladder rung under a trial
// budget and an optional request-wide deadline, and return the best
// cut found so far when either runs out. The rungs
// (methods/registry.hpp quality_portfolio):
//
//   fast     — greedy+hill-climb only: bounded-latency microsecond
//              answers, no refiner loop to interrupt;
//   balanced — CKL, path optimization, multilevel-KL: the strong
//              quality-per-second refiners;
//   best     — the historical CKL/CSA/KL/SA/mlkl race with path
//              optimization appended (the default rung, so pre-ladder
//              request streams replay byte-identically).
//
// Why a portfolio: heuristic cut quality is a *distribution* over
// random starts (Schreiber & Martin, PAPERS.md), so a fixed budget is
// best spent on diverse starts; and which heuristic wins is
// graph-class dependent (Berry & Goldberg), so the race covers the
// classes instead of betting on one. Dispatch order puts CKL first —
// the paper's best quality-per-second method — so budget=1 degrades to
// exactly `gbis solve <g> ckl` with one start (fast rung excepted).
//
// Determinism: trial i of a request draws from an Rng seeded with
// splitmix64_at(request seed, i) — the parallel-runner scheme — and
// runs method portfolio[i mod size] whichever lane runs it. A request's
// trials may be spread over several lanes (PolicyRun below; the
// service scheduler gives a lone cold request up to one lane per pool
// worker), and the lanes reduce by the serial rules in trial order, so
// the result is the same for any lane count. With no deadline it is a
// pure function of (graph, spec, seed); with one, completed trials
// still produce identical cuts but *which* trials complete is honest
// wall-clock data, exactly like campaign trial deadlines.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "gbis/harness/parallel_runner.hpp"
#include "gbis/harness/runner.hpp"
#include "gbis/harness/timer.hpp"
#include "gbis/methods/registry.hpp"
#include "gbis/obs/span.hpp"
#include "gbis/util/deadline.hpp"

namespace gbis {

/// What to run for one request.
struct PolicySpec {
  bool portfolio = true;         ///< true: race the portfolio ("auto")
  Method method = Method::kCkl;  ///< used when portfolio is false
  /// Ladder rung whose portfolio the race draws from (portfolio only;
  /// an explicit method ignores it).
  QualityTier quality = QualityTier::kBest;
  std::uint32_t budget = 2;      ///< total trials to spend
  /// Request-wide wall-clock budget in seconds; 0 = unlimited. One
  /// Deadline is armed for the whole request: trials still queued when
  /// it expires are marked timed out without running, and the trial in
  /// flight is interrupted at its next cooperative poll.
  double deadline_seconds = 0;
};

/// The racing order of the default ("best") rung's portfolio (trial i
/// runs method i mod size, start i / size). Rung-specific portfolios
/// come from quality_portfolio(tier) in methods/registry.hpp.
std::span<const Method> policy_portfolio();

/// What the policy produced. `status` follows the campaign cell
/// convention: kOk when any trial finished, else the dominant failure.
struct PolicyResult {
  TrialStatus status = TrialStatus::kSkipped;
  Weight best_cut = 0;             ///< valid only when status == kOk
  Method best_method = Method::kCkl;  ///< method of the winning trial
  std::uint32_t ok = 0, failed = 0, timed_out = 0, skipped = 0;
  double cpu_seconds = 0;   ///< summed over executed trials
  std::string first_error;  ///< first failure/timeout text, trial order
  /// True when the first failure was an allocation failure — the
  /// scheduler maps it to the stable "internal: out of memory" client
  /// reason (full text stays on stderr + the access log).
  bool oom = false;
  /// True when this result came from a lineage warm start (dyn/warm)
  /// rather than the cold policy — set by the scheduler's warm path,
  /// never by run_policy itself.
  bool warm = false;
  std::vector<std::uint8_t> best_sides;  ///< filled when keep_sides
};

/// Runs the policy. `base` supplies the solver knobs (KlOptions etc.);
/// its obs block is ignored — the service keeps its own counters.
/// `stop` (optional) drains remaining trials as skipped, the graceful-
/// shutdown path. Never throws on trial failure; failures are data.
/// A bound `spans` buffer (obs/span.hpp) collects per-method sub-spans
/// for request tracing: one "trial" span per executed trial plus the
/// trial's convergence points (kl.pass / sa.temp / fm.pass / po.pass),
/// with times relative to run_policy entry. The span *structure* is a
/// pure function of (graph, spec, seed) like the cuts themselves.
/// This is the one-lane PolicyRun.
PolicyResult run_policy(const Graph& g, const PolicySpec& spec,
                        std::uint64_t seed, const RunConfig& base = {},
                        bool keep_sides = false,
                        const std::atomic<bool>* stop = nullptr,
                        SpanBuffer* spans = nullptr);

/// One request's trials, shared by the lanes that run them. Each lane
/// claims the next trial index from a shared counter, runs it exactly
/// as run_policy does and folds it into its own partial result;
/// reduce() merges the partials by the serial rules (best = minimum
/// (cut, trial), counts summed, first error = lowest failing trial).
/// Trial spans reach `spans` in trial order: a lane that finishes ahead
/// of an earlier trial parks its spans, at most a few per lane, so
/// memory stays O(lanes) at any budget; a lane that finds the parking
/// area nearly full stops claiming rather than waiting, which frees its
/// worker. Span times are relative to construction.
class PolicyRun {
 public:
  /// Called once, by the first lane to start, with the request's
  /// deadline (armed at that moment). If it throws, no trial runs and
  /// reduce() rethrows the exception.
  using StartHook = std::function<void(const Deadline&)>;

  PolicyRun(const Graph& g, const PolicySpec& spec, std::uint64_t seed,
            const RunConfig& base, bool keep_sides, std::uint32_t lanes,
            const std::atomic<bool>* stop = nullptr,
            SpanBuffer* spans = nullptr);
  PolicyRun(const PolicyRun&) = delete;
  PolicyRun& operator=(const PolicyRun&) = delete;

  /// Runs trials as lane `lane` (< lanes) until none is left. Distinct
  /// lanes may run concurrently; each lane runs at most once.
  void run_lane(std::uint32_t lane, const StartHook& on_start = {});

  /// The merged result, once every lane that ran has returned. Rethrows
  /// an exception that escaped a lane (the start hook's, or a span
  /// allocation failure), as the serial loop would have propagated it.
  PolicyResult reduce();

 private:
  /// One lane's fold over the trials it ran, in its claim order.
  struct Partial {
    PolicyResult result;
    std::uint64_t best_trial = 0;   ///< valid when result.ok > 0
    std::uint64_t error_trial = 0;  ///< valid when first_error is set
  };
  /// Spans of a trial that finished ahead of an earlier one.
  struct Parked {
    std::uint64_t trial = 0;
    std::vector<SpanRec> spans;
  };

  /// Arms the deadline and runs the start hook on the first call; false
  /// when the hook failed.
  bool start(const StartHook& on_start);
  /// Whether a lane with nothing in flight may claim another trial
  /// without the parking area overflowing (tracing only).
  bool may_claim();
  void run_trial(std::uint64_t trial, RunConfig& config, Partial& partial,
                 std::vector<SpanRec>& trial_spans);
  /// Offers a claimed trial's spans in trial order (empty for a trial
  /// that did not run).
  void retire(std::uint64_t trial, std::vector<SpanRec> trial_spans);
  void offer_locked(std::vector<SpanRec>& trial_spans);

  const Graph& graph_;
  PolicySpec spec_;
  std::uint64_t seed_;
  RunConfig config_;  ///< base with the service-owned sinks cleared
  bool keep_sides_;
  const std::atomic<bool>* stop_;
  SpanBuffer* spans_;  ///< null when not tracing
  std::span<const Method> portfolio_;
  WallTimer clock_;
  std::atomic<std::uint64_t> next_trial_{0};
  std::vector<Partial> partials_;  ///< one per lane
  const std::size_t parked_capacity_;

  std::mutex mutex_;  // guards everything below
  bool started_ = false;
  Deadline deadline_;
  std::exception_ptr error_;
  std::uint64_t next_retire_ = 0;
  std::vector<Parked> parked_;  ///< capacity fixed at construction
};

}  // namespace gbis
