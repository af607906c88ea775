// Deterministic fault injection for the campaign layer. Every failure
// path the harness claims to survive — a throwing trial, a hung trial,
// a shutdown mid-campaign — can be triggered on an exact trial id, so
// the tests exercise them reproducibly instead of trusting them on
// faith.
//
// Spec grammar (also accepted from the GBIS_FAULTS environment
// variable):
//
//   spec  := entry ("," entry)*
//   entry := kind "@trial:" id
//   kind  := "throw" | "hang" | "stop"
//   id    := unsigned integer (the dense trial id of the enumeration)
//
// e.g.  GBIS_FAULTS=throw@trial:17,hang@trial:23
//
//   throw — the trial raises InjectedFault (-> status `failed`)
//   hang  — the trial blocks until its deadline expires (-> status
//           `timed_out`) or a shutdown is requested; with neither it
//           hangs for real, which is the point
//   stop  — entering the trial calls request_shutdown(), as if SIGTERM
//           had arrived at that moment; the trial itself runs normally
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "gbis/util/deadline.hpp"
#include "gbis/util/knobs.hpp"

namespace gbis {

/// What a planned fault does to its trial.
enum class FaultKind : std::uint8_t { kNone, kThrow, kHang, kStop };

/// The exception an injected `throw` raises inside a trial.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// An immutable trial-id -> fault map parsed from a spec string.
class FaultPlan {
 public:
  /// No faults.
  FaultPlan() = default;

  /// Parses the grammar above; throws std::invalid_argument naming the
  /// offending entry on any deviation. An empty spec is an empty plan.
  static FaultPlan parse(const std::string& spec);

  /// Reads GBIS_FAULTS through fault_plan_knob: a malformed value warns
  /// on stderr and yields an empty plan.
  static FaultPlan from_env();

  bool empty() const { return by_trial_.empty(); }
  std::size_t size() const { return by_trial_.size(); }

  /// The fault planned for `trial_id` (kNone when unplanned).
  FaultKind at(std::uint64_t trial_id) const;

 private:
  std::unordered_map<std::uint64_t, FaultKind> by_trial_;
};

/// The trial runner's injection point, called as trial `trial_id`
/// starts. No-op for a null/empty plan. `deadline` is the trial's own
/// deadline — what an injected hang spins against.
void maybe_inject_fault(const FaultPlan* plan, std::uint64_t trial_id,
                        const Deadline& deadline);

/// The GBIS_FAULTS row, bound to `plan`.
Knob fault_plan_knob(FaultPlan& plan);

// ---------------------------------------------------------------------------
// Service-scoped fault injection (svc/scheduler.*). Same philosophy as
// the campaign plan above, but the injection sites are the service
// scheduler's dispatch points instead of trial starts:
//
//   spec  := entry ("," entry)*
//   entry := kind "@" site ":" ordinal
//   kind  := "throw" | "hang" | "oom" | "crash"
//   site  := "req" | "solve" | "batch"
//
// e.g.  GBIS_SVC_FAULTS=throw@req:3,crash@batch:2
//
//   site req   — ordinal is the request seq (the access-log "seq"),
//                checked as that request's cold solve starts
//   site solve — ordinal is the service-lifetime cold-solve ordinal
//                (leaders only; hits/coalesced followers don't count)
//   site batch — ordinal counts non-empty process_batch calls, checked
//                at batch entry before any work
//
//   throw — raise InjectedFault (-> a stable "internal:" response;
//           the injected text goes to stderr + the access log)
//   hang  — block until the request deadline expires or a shutdown is
//           requested; with neither it hangs for real
//   oom   — raise std::bad_alloc (-> "internal: out of memory")
//   crash — raise(SIGKILL): the crash-safety chaos hook. The process
//           dies instantly, exactly like an external kill -9; batches
//           before the ordinal are fully journaled and flushed.
//
// All kinds are accepted at all sites (a crash@solve kills mid-batch,
// a throw@batch fails every request of that batch); the canonical
// chaos suite uses throw@req, hang@solve, oom@solve, and crash@batch.

/// What an injected service fault does at its site.
enum class SvcFaultKind : std::uint8_t { kNone, kThrow, kHang, kOom, kCrash };

/// Where in the scheduler a service fault fires.
enum class SvcFaultSite : std::uint8_t { kReq = 0, kSolve, kBatch };

/// An immutable (site, ordinal) -> kind map parsed from a spec string.
class SvcFaultPlan {
 public:
  /// No faults.
  SvcFaultPlan() = default;

  /// Parses the grammar above; throws std::invalid_argument naming the
  /// offending entry on any deviation. An empty spec is an empty plan.
  static SvcFaultPlan parse(const std::string& spec);

  /// Reads GBIS_SVC_FAULTS through svc_fault_plan_knob: a malformed
  /// value warns on stderr and yields an empty plan.
  static SvcFaultPlan from_env();

  bool empty() const { return by_site_.empty(); }
  std::size_t size() const { return by_site_.size(); }

  /// The fault planned for `ordinal` at `site` (kNone when unplanned).
  SvcFaultKind at(SvcFaultSite site, std::uint64_t ordinal) const;

 private:
  /// Key = ordinal * 4 + site (sites fit in two bits).
  std::unordered_map<std::uint64_t, SvcFaultKind> by_site_;
};

/// The scheduler's injection point. No-op for a null/empty plan.
/// `deadline` is the request deadline an injected hang spins against;
/// `stop` (optional) also rescues a hang, mirroring the graceful-
/// shutdown path.
void maybe_inject_svc_fault(const SvcFaultPlan* plan, SvcFaultSite site,
                            std::uint64_t ordinal, const Deadline& deadline,
                            const std::atomic<bool>* stop = nullptr);

/// The GBIS_SVC_FAULTS row, bound to `plan`.
Knob svc_fault_plan_knob(SvcFaultPlan& plan);

}  // namespace gbis
