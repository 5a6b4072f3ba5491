#include "autoscale/firm.h"

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

constexpr double kHighUtilization = 0.8;
constexpr double kLowUtilization = 0.35;
/// p99 below this x SLO allows scale-down.
constexpr double kRelaxFraction = 0.4;
constexpr double kStepCores = 1.0;
constexpr int kDownscaleStabilizationPeriods = 4;

FirmAutoscaler::FirmAutoscaler(Simulator& sim, Application& app,
                               TraceWarehouse& warehouse, FirmOptions options)
    : Controller(sim, kControlPeriod),
      app_(app),
      warehouse_(warehouse),
      options_(options),
      util_(app),
      localizer_(app, warehouse) {}

void FirmAutoscaler::manage(Service* service) {
  allowed_services_.push_back(service);
}

bool FirmAutoscaler::allowed(const Service& svc) const {
  if (allowed_services_.empty()) return true;
  for (const Service* s : allowed_services_) {
    if (s == &svc) return true;
  }
  return false;
}

void FirmAutoscaler::begin() {
  util_.epoch();
  localizer_.begin_window();
  window_start_ = sim().now();
}

void FirmAutoscaler::observe(SimTime now) {
  // End-to-end p99 over the last window, from the trace warehouse.
  std::vector<double> rts;
  warehouse_.for_each_in_window(window_start_, now, [&](const Trace& t) {
    rts.push_back(static_cast<double>(t.response_time()));
  });
  // Empty window (no completed traces) counts as p99 = 0 here: the
  // kNoSample sentinel would poison the SimTime cast below, and "no
  // traffic" should read as relaxed, not unknown.
  observed_p99_ = rts.empty() ? 0.0 : percentile(rts, 99.0);

  // Critical-service localization (FIRM step).
  last_report_ = localizer_.analyze();
  localizer_.begin_window();
  window_start_ = now;
}

void FirmAutoscaler::decide(SimTime now) {
  const double p99 = observed_p99_;

  Service* critical = app_.service(last_report_.critical);
  if (critical == nullptr || !allowed(*critical)) {
    // Fall back to the managed service when localization is ambiguous.
    critical = allowed_services_.empty() ? nullptr : allowed_services_.front();
  }
  if (critical == nullptr) {
    util_.epoch();
    return;
  }

  const double util = util_.utilization(*critical);
  const double current = critical->cpu_limit();
  double desired = current;

  obs::ControlDecisionRecord rec;
  rec.at = now;
  rec.target = critical->name();
  rec.critical_service =
      app_.service(last_report_.critical) != nullptr
          ? app_.service(last_report_.critical)->name()
          : "";
  rec.traces_analyzed = last_report_.traces_analyzed;
  rec.observed_p99_ms = to_msec(static_cast<SimTime>(p99));
  rec.observed_utilization = util;
  rec.old_replicas = rec.new_replicas = critical->active_replicas();
  rec.old_cores = rec.new_cores = current;
  rec.action = "hold";

  const bool violating =
      p99 > static_cast<double>(options_.slo_latency) || util > kHighUtilization;
  const bool relaxed =
      p99 < kRelaxFraction * static_cast<double>(options_.slo_latency) &&
      util < kLowUtilization;

  if (violating) {
    low_periods_ = 0;
    desired = std::min(options_.max_cores, current + kStepCores);
    rec.reason = desired == current
                     ? "SLO violation or high utilization, but at max cores"
                     : "SLO violation or utilization above high watermark";
  } else if (relaxed) {
    ++low_periods_;
    if (low_periods_ >= kDownscaleStabilizationPeriods) {
      desired = std::max(options_.min_cores, current - kStepCores);
      low_periods_ = 0;
      rec.reason = desired == current ? "relaxed but at min cores"
                                      : "stabilized relaxed latency";
    } else {
      rec.reason = "latency relaxed, awaiting downscale stabilization";
    }
  } else {
    low_periods_ = 0;
    rec.reason = "latency and utilization within bounds";
  }

  if (desired != current) {
    critical->set_cpu_limit(desired);
    rec.action = desired > current ? "scale_up" : "scale_down";
    rec.new_cores = desired;
    ControlAction act;
    act.kind = ControlAction::Kind::kCores;
    act.target = critical->name();
    act.reason = rec.reason;
    act.old_cores = current;
    act.new_cores = desired;
    act.old_replicas = act.new_replicas = critical->active_replicas();
    emit(std::move(act));
    SORA_INFO << "FIRM " << critical->name() << " cores " << current << " -> "
              << desired << " (p99 " << to_msec(static_cast<SimTime>(p99))
              << "ms, util " << util << ")";
  }
  record_decision(std::move(rec));
  util_.epoch();
}

}  // namespace sora
