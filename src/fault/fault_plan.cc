#include "fault/fault_plan.h"

#include <utility>

namespace sora {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashInstance:
      return "crash_instance";
    case FaultKind::kCpuLimitStep:
      return "cpu_limit_step";
    case FaultKind::kSpanDropout:
      return "span_dropout";
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

}  // namespace sora
