#include "fault/fault_plan.h"

#include <algorithm>

#include "common/rng.h"

namespace sora {

/// Fraction of spans (or scatter samples) a seed-derived dropout discards.
constexpr double kDropoutFraction = 0.5;

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashInstance:
      return "crash_instance";
    case FaultKind::kCpuLimitStep:
      return "cpu_limit_step";
    case FaultKind::kSpanDropout:
      return "span_dropout";
    case FaultKind::kSpanDelay:
      return "span_delay";
    case FaultKind::kScatterDropout:
      return "scatter_dropout";
    case FaultKind::kControlStall:
      return "control_stall";
  }
  return "unknown";
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  events_.push_back(std::move(ev));
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, SimTime horizon,
                            RandomFaultOptions options) {
  // Independent stream: the plan must not perturb (or be perturbed by) the
  // workload/demand RNGs derived from the same experiment seed.
  Rng rng(seed ^ 0x0fa1742bd93c6e85ULL);
  FaultPlan plan;

  const SimTime lo = static_cast<SimTime>(options.earliest *
                                          static_cast<double>(horizon));
  const SimTime hi = static_cast<SimTime>(options.latest *
                                          static_cast<double>(horizon));
  auto draw_at = [&] {
    return hi > lo ? lo + static_cast<SimTime>(rng.uniform_int(
                              static_cast<std::uint64_t>(hi - lo)))
                   : lo;
  };

  if (!options.crash_services.empty()) {
    for (int i = 0; i < options.crashes; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kCrashInstance;
      ev.at = draw_at();
      ev.service = options.crash_services[rng.uniform_int(
          options.crash_services.size())];
      ev.instance = static_cast<std::size_t>(rng.uniform_int(4));
      ev.drop_inflight = options.drop_inflight;
      ev.duration = options.crash_downtime;
      plan.add(std::move(ev));
    }
  }
  if (!options.cpu_services.empty()) {
    for (int i = 0; i < options.cpu_steps; ++i) {
      FaultEvent ev;
      ev.kind = FaultKind::kCpuLimitStep;
      ev.at = draw_at();
      ev.service =
          options.cpu_services[rng.uniform_int(options.cpu_services.size())];
      ev.cores = rng.uniform(kRandomCpuCoresLo, kRandomCpuCoresHi);
      plan.add(std::move(ev));
    }
  }
  for (int i = 0; i < options.span_dropouts; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kSpanDropout;
    ev.at = draw_at();
    ev.fraction = kDropoutFraction;
    ev.duration = options.dropout_duration;
    plan.add(std::move(ev));
  }
  for (int i = 0; i < options.scatter_dropouts; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kScatterDropout;
    ev.at = draw_at();
    ev.fraction = kDropoutFraction;
    ev.duration = options.dropout_duration;
    plan.add(std::move(ev));
  }
  for (int i = 0; i < options.control_stalls; ++i) {
    FaultEvent ev;
    ev.kind = FaultKind::kControlStall;
    ev.at = draw_at();
    ev.duration = options.stall_duration;
    plan.add(std::move(ev));
  }

  // Stable sort: events generated earlier win ties, so the order is a pure
  // function of (seed, horizon, options).
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace sora
