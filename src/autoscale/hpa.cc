#include "autoscale/hpa.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

constexpr double kTargetUtilization = 0.8;
constexpr int kMinReplicas = 1;
/// Ignore utilization within this tolerance of the target (K8s: 10%).
constexpr double kTolerance = 0.1;

HorizontalPodAutoscaler::HorizontalPodAutoscaler(Simulator& sim,
                                                 Application& app,
                                                 HpaOptions options)
    : Controller(sim, kControlPeriod),
      app_(app),
      options_(options),
      util_(app) {}

void HorizontalPodAutoscaler::manage(Service* service) {
  managed_.push_back(Managed{service, 0, 0});
}

void HorizontalPodAutoscaler::decide(SimTime now) {
  for (Managed& m : managed_) {
    Service& svc = *m.service;
    const double util = util_.utilization(svc);
    const int current = svc.active_replicas();
    const double ratio = util / kTargetUtilization;

    int desired = current;
    if (std::abs(ratio - 1.0) > kTolerance) {
      desired = static_cast<int>(std::ceil(static_cast<double>(current) * ratio));
    }
    desired = std::clamp(desired, kMinReplicas, options_.max_replicas);

    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.target = svc.name();
    rec.observed_utilization = util;
    rec.old_replicas = current;
    rec.new_replicas = current;
    rec.old_cores = rec.new_cores = svc.cpu_limit();

    if (desired > current) {
      m.low_periods = 0;
      svc.scale_replicas(desired);
      rec.action = "scale_out";
      rec.reason = "utilization above target";
      rec.new_replicas = desired;
      emit_replicas(svc, current, desired, rec.reason);
      SORA_INFO << "HPA scale-out " << svc.name() << " " << current << " -> "
                << desired << " (util " << util << ")";
    } else if (desired < current) {
      // Downscale stabilization: require consistent low desire.
      ++m.low_periods;
      m.pending_down = std::max(desired, m.pending_down);
      if (m.low_periods >= options_.downscale_stabilization_periods) {
        const int target = std::max(desired, m.pending_down);
        svc.scale_replicas(target);
        rec.action = "scale_in";
        rec.reason = "stabilized low desired replica count";
        rec.new_replicas = target;
        emit_replicas(svc, current, target, rec.reason);
        SORA_INFO << "HPA scale-in " << svc.name() << " " << current << " -> "
                  << target << " (util " << util << ")";
        m.low_periods = 0;
        m.pending_down = 0;
      } else {
        rec.action = "hold";
        rec.reason = "desire below current, awaiting downscale stabilization";
      }
    } else {
      m.low_periods = 0;
      m.pending_down = 0;
      rec.action = "hold";
      rec.reason = "utilization within tolerance of target";
    }
    record_decision(std::move(rec));
  }
  util_.epoch();
}

void HorizontalPodAutoscaler::emit_replicas(const Service& svc, int from,
                                            int to, const std::string& why) {
  ControlAction act;
  act.kind = ControlAction::Kind::kReplicas;
  act.target = svc.name();
  act.reason = why;
  act.old_replicas = from;
  act.new_replicas = to;
  act.old_cores = act.new_cores = svc.cpu_limit();
  emit(std::move(act));
}

}  // namespace sora
