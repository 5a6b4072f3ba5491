// Kubernetes Horizontal Pod Autoscaler (rule-based).
//
// Implements the standard HPA control law: every control period (15 s,
// matching the paper), desired replicas = ceil(current * utilization
// / target). Scale-up applies immediately; scale-down waits for a
// stabilization window of consistently low desire, mirroring Kubernetes'
// downscale stabilization.
#pragma once

#include <string>
#include <vector>

#include "autoscale/controller.h"
#include "sim/simulator.h"
#include "svc/utilization.h"

namespace sora {

struct HpaOptions {
  int max_replicas = 8;
  /// Consecutive periods of low desired count before scaling down.
  int downscale_stabilization_periods = 4;
};

class HorizontalPodAutoscaler : public Controller {
 public:
  HorizontalPodAutoscaler(Simulator& sim, Application& app, HpaOptions options);

  /// Put a service under HPA control.
  void manage(Service* service);

  const char* name() const override { return "k8s-hpa"; }
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
    int pending_down = 0;
  };

  /// Emit the kReplicas action for a scale from `from` to `to` replicas.
  void emit_replicas(const Service& svc, int from, int to,
                     const std::string& why);

  Application& app_;
  HpaOptions options_;
  UtilizationTracker util_;
  std::vector<Managed> managed_;
};

}  // namespace sora
