#include "gbis/harness/fault_injection.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>

#include "gbis/harness/shutdown.hpp"

namespace gbis {

namespace {

[[noreturn]] void bad_entry(const std::string& entry) {
  throw std::invalid_argument(
      "fault spec entry \"" + entry +
      "\" does not match <throw|hang|stop>@trial:<id>");
}

FaultKind parse_kind(const std::string& name, const std::string& entry) {
  if (name == "throw") return FaultKind::kThrow;
  if (name == "hang") return FaultKind::kHang;
  if (name == "stop") return FaultKind::kStop;
  bad_entry(entry);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) bad_entry(entry);

    const std::size_t at = entry.find('@');
    if (at == std::string::npos) bad_entry(entry);
    const FaultKind kind = parse_kind(entry.substr(0, at), entry);

    const std::string site = entry.substr(at + 1);
    if (site.rfind("trial:", 0) != 0) bad_entry(entry);
    const std::string id_text = site.substr(6);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos) {
      bad_entry(entry);
    }
    const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
    plan.by_trial_[id] = kind;
  }
  return plan;
}

Knob fault_plan_knob(FaultPlan& plan) {
  return {nullptr, "GBIS_FAULTS", "SPEC",
          "inject deterministic faults into campaign trials: "
          "kind@trial:ID[,...], kinds throw, hang, stop (docs/ROBUSTNESS.md)",
          grammar(plan)};
}

FaultPlan FaultPlan::from_env() {
  FaultPlan plan;
  apply_env({fault_plan_knob(plan)});
  return plan;
}

FaultKind FaultPlan::at(std::uint64_t trial_id) const {
  const auto it = by_trial_.find(trial_id);
  return it == by_trial_.end() ? FaultKind::kNone : it->second;
}

SvcFaultPlan SvcFaultPlan::parse(const std::string& spec) {
  const auto bad = [](const std::string& entry) -> void {
    throw std::invalid_argument(
        "service fault spec entry \"" + entry +
        "\" does not match <throw|hang|oom|crash>@<req|solve|batch>:<n>");
  };
  SvcFaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) bad(entry);

    const std::size_t at = entry.find('@');
    const std::size_t colon = entry.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos) bad(entry);

    const std::string kind_text = entry.substr(0, at);
    SvcFaultKind kind = SvcFaultKind::kNone;
    if (kind_text == "throw") kind = SvcFaultKind::kThrow;
    else if (kind_text == "hang") kind = SvcFaultKind::kHang;
    else if (kind_text == "oom") kind = SvcFaultKind::kOom;
    else if (kind_text == "crash") kind = SvcFaultKind::kCrash;
    else bad(entry);

    const std::string site_text = entry.substr(at + 1, colon - at - 1);
    SvcFaultSite site = SvcFaultSite::kReq;
    if (site_text == "req") site = SvcFaultSite::kReq;
    else if (site_text == "solve") site = SvcFaultSite::kSolve;
    else if (site_text == "batch") site = SvcFaultSite::kBatch;
    else bad(entry);

    const std::string id_text = entry.substr(colon + 1);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos) {
      bad(entry);
    }
    const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
    plan.by_site_[id * 4 + static_cast<std::uint64_t>(site)] = kind;
  }
  return plan;
}

Knob svc_fault_plan_knob(SvcFaultPlan& plan) {
  return {nullptr, "GBIS_SVC_FAULTS", "SPEC",
          "inject service-scoped faults: kind@site:N[,...], kinds throw, "
          "hang, oom, crash at sites req, solve, batch (docs/ROBUSTNESS.md)",
          grammar(plan)};
}

SvcFaultPlan SvcFaultPlan::from_env() {
  SvcFaultPlan plan;
  apply_env({svc_fault_plan_knob(plan)});
  return plan;
}

SvcFaultKind SvcFaultPlan::at(SvcFaultSite site, std::uint64_t ordinal) const {
  const auto it =
      by_site_.find(ordinal * 4 + static_cast<std::uint64_t>(site));
  return it == by_site_.end() ? SvcFaultKind::kNone : it->second;
}

namespace {

const char* svc_site_name(SvcFaultSite site) {
  switch (site) {
    case SvcFaultSite::kReq: return "req";
    case SvcFaultSite::kSolve: return "solve";
    case SvcFaultSite::kBatch: return "batch";
  }
  return "req";
}

}  // namespace

void maybe_inject_svc_fault(const SvcFaultPlan* plan, SvcFaultSite site,
                            std::uint64_t ordinal, const Deadline& deadline,
                            const std::atomic<bool>* stop) {
  if (plan == nullptr || plan->empty()) return;
  const std::string where =
      std::string(svc_site_name(site)) + ":" + std::to_string(ordinal);
  switch (plan->at(site, ordinal)) {
    case SvcFaultKind::kNone:
      return;
    case SvcFaultKind::kThrow:
      throw InjectedFault("injected fault: throw@" + where);
    case SvcFaultKind::kOom:
      throw std::bad_alloc();
    case SvcFaultKind::kHang:
      // Cooperative, like the campaign hang: rescued by the request
      // deadline or a shutdown/stop request; with neither it hangs for
      // real, which is the point.
      for (;;) {
        if (deadline.expired()) {
          throw DeadlineExceeded("injected fault: hang@" + where +
                                 " hit the request deadline");
        }
        if (shutdown_requested() ||
            (stop != nullptr && stop->load(std::memory_order_acquire))) {
          throw DeadlineExceeded("injected fault: hang@" + where +
                                 " aborted by shutdown");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    case SvcFaultKind::kCrash:
      // The crash-safety chaos hook: die exactly like an external
      // kill -9 — no unwinding, no flushing, no atexit. The one thing
      // that does survive is the flight recorder's black box: the dump
      // hook is async-signal-safe, so firing it here models a fatal-
      // signal handler getting its last write out.
      trigger_flight_dump();
      std::raise(SIGKILL);
      return;
  }
}

void maybe_inject_fault(const FaultPlan* plan, std::uint64_t trial_id,
                        const Deadline& deadline) {
  if (plan == nullptr || plan->empty()) return;
  switch (plan->at(trial_id)) {
    case FaultKind::kNone:
      return;
    case FaultKind::kThrow:
      throw InjectedFault("injected fault: throw@trial:" +
                          std::to_string(trial_id));
    case FaultKind::kHang:
      // A cooperative hang: exactly what a stuck SA schedule looks like
      // to the harness. Rescued by the trial deadline or a shutdown
      // request; with neither it hangs for real.
      for (;;) {
        if (deadline.expired()) {
          throw DeadlineExceeded("injected fault: hang@trial:" +
                                 std::to_string(trial_id) +
                                 " hit the trial deadline");
        }
        if (shutdown_requested()) {
          throw DeadlineExceeded("injected fault: hang@trial:" +
                                 std::to_string(trial_id) +
                                 " aborted by shutdown");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    case FaultKind::kStop:
      request_shutdown();
      return;
  }
}

}  // namespace gbis
