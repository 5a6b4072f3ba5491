// FIRM-like fine-grained hardware-only resource manager.
//
// FIRM (Qiu et al., OSDI '20) localizes the critical microservice instance
// and reprovisions its hardware (CPU) to curb SLO violations; it never
// re-adapts soft resources — exactly the property the paper's Section 5.2
// comparison exercises. The RL policy internals are irrelevant to that
// comparison, so this implementation keeps FIRM's structure (tracing-based
// critical-service localization + fine-grained vertical CPU scaling driven
// by measured tail latency against the SLO) with a deterministic policy:
//
//   * p99(end-to-end) > slo_latency, or utilization > high  ->  +step cores
//   * p99 < relax_fraction * slo and utilization < low      ->  -step cores
#pragma once

#include <vector>

#include "autoscale/controller.h"
#include "core/localization.h"
#include "sim/simulator.h"
#include "svc/utilization.h"
#include "trace/warehouse.h"

namespace sora {

struct FirmOptions {
  SimTime slo_latency = msec(400);  ///< end-to-end p99 objective
  double min_cores = 1.0;
  double max_cores = 8.0;
};

class FirmAutoscaler : public Controller {
 public:
  FirmAutoscaler(Simulator& sim, Application& app, TraceWarehouse& warehouse,
                 FirmOptions options);

  /// Restrict scaling decisions to this set (empty = any service the
  /// localizer identifies as critical).
  void manage(Service* service);

  const char* name() const override { return "firm"; }
  std::size_t max_actions_per_round() const override { return 1; }

  /// Most recent localization verdict (diagnostics).
  const CriticalServiceReport& last_report() const { return last_report_; }

 protected:
  void begin() override;
  void observe(SimTime now) override;
  void decide(SimTime now) override;

 private:
  bool allowed(const Service& svc) const;

  Application& app_;
  TraceWarehouse& warehouse_;
  FirmOptions options_;
  UtilizationTracker util_;
  CriticalServiceLocalizer localizer_;
  std::vector<Service*> allowed_services_;
  CriticalServiceReport last_report_;
  SimTime window_start_ = 0;
  double observed_p99_ = 0.0;  ///< end-to-end p99 of the last window
  int low_periods_ = 0;
};

}  // namespace sora
