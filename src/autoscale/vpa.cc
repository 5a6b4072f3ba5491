#include "autoscale/vpa.h"

#include <algorithm>

#include "common/log.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

constexpr double kHighUtilization = 0.8;  ///< scale up above this
constexpr double kLowUtilization = 0.35;  ///< scale down below this
constexpr double kStepCores = 1.0;

VerticalPodAutoscaler::VerticalPodAutoscaler(Simulator& sim, Application& app,
                                             VpaOptions options)
    : Controller(sim, kControlPeriod),
      app_(app),
      options_(options),
      util_(app) {}

void VerticalPodAutoscaler::manage(Service* service) {
  managed_.push_back(Managed{service, 0});
}

void VerticalPodAutoscaler::decide(SimTime now) {
  for (Managed& m : managed_) {
    Service& svc = *m.service;
    const double util = util_.utilization(svc);
    const double current = svc.cpu_limit();
    double desired = current;

    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.target = svc.name();
    rec.observed_utilization = util;
    rec.old_replicas = rec.new_replicas = svc.active_replicas();
    rec.old_cores = rec.new_cores = current;
    rec.action = "hold";

    if (util > kHighUtilization) {
      m.low_periods = 0;
      desired = std::min(options_.max_cores, current + kStepCores);
      rec.reason = desired == current ? "high utilization but at max cores"
                                      : "utilization above high watermark";
    } else if (util < kLowUtilization) {
      ++m.low_periods;
      if (m.low_periods >= options_.downscale_stabilization_periods) {
        desired = std::max(options_.min_cores, current - kStepCores);
        m.low_periods = 0;
        rec.reason = desired == current ? "low utilization but at min cores"
                                        : "stabilized low utilization";
      } else {
        rec.reason = "low utilization, awaiting downscale stabilization";
      }
    } else {
      m.low_periods = 0;
      rec.reason = "utilization within watermarks";
    }

    if (desired != current) {
      svc.set_cpu_limit(desired);
      rec.action = desired > current ? "scale_up" : "scale_down";
      rec.new_cores = desired;
      ControlAction act;
      act.kind = ControlAction::Kind::kCores;
      act.target = svc.name();
      act.reason = rec.reason;
      act.old_cores = current;
      act.new_cores = desired;
      act.old_replicas = act.new_replicas = svc.active_replicas();
      emit(std::move(act));
      SORA_INFO << "VPA " << svc.name() << " cores " << current << " -> "
                << desired << " (util " << util << ")";
    }
    record_decision(std::move(rec));
  }
  util_.epoch();
}

}  // namespace sora
