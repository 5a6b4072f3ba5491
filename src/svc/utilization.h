// Per-service CPU utilization over an epoch, from the services' busy-time
// integrals. The hardware scalers open an epoch each control period; the
// critical-service localizer opens one per localization window.
#pragma once

#include <vector>

#include "common/time.h"

namespace sora {

class Application;
class Service;

class UtilizationTracker {
 public:
  /// Opens the first epoch.
  explicit UtilizationTracker(Application& app);

  /// Mean utilization (0..1 of the CPU capacity) of `service` since the
  /// epoch opened: Δbusy / (capacity × elapsed), 0 when no time has passed
  /// or the service has no capacity.
  double utilization(const Service& service) const;

  /// Open a new epoch (snapshot every service's busy integral).
  void epoch();

 private:
  Application& app_;
  SimTime epoch_start_ = 0;
  // Busy integral at epoch start, indexed by ServiceId value (the service
  // set is fixed once the Application is built).
  std::vector<double> busy_;
};

}  // namespace sora
