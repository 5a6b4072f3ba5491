// Threshold-based Vertical Pod Autoscaler.
//
// Adjusts a service's per-replica CPU limit in whole-core steps when its
// utilization crosses thresholds — the "simple threshold-based hardware
// scaling solution (Kubernetes VPA)" both ConScale and Sora are paired
// with in Section 5.2.
#pragma once

#include <vector>

#include "autoscale/controller.h"
#include "sim/simulator.h"
#include "svc/utilization.h"

namespace sora {

struct VpaOptions {
  double min_cores = 1.0;
  double max_cores = 8.0;
  /// Consecutive low periods before scaling down.
  int downscale_stabilization_periods = 4;
};

class VerticalPodAutoscaler : public Controller {
 public:
  VerticalPodAutoscaler(Simulator& sim, Application& app, VpaOptions options);

  void manage(Service* service);

  const char* name() const override { return "k8s-vpa"; }
  std::size_t max_actions_per_round() const override {
    return managed_.size();
  }

 protected:
  void begin() override { util_.epoch(); }
  void decide(SimTime now) override;

 private:
  struct Managed {
    Service* service;
    int low_periods = 0;
  };

  Application& app_;
  VpaOptions options_;
  UtilizationTracker util_;
  std::vector<Managed> managed_;
};

}  // namespace sora
