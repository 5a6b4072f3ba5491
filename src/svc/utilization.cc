#include "svc/utilization.h"

#include "sim/simulator.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

UtilizationTracker::UtilizationTracker(Application& app) : app_(app) {
  epoch();
}

void UtilizationTracker::epoch() {
  epoch_start_ = app_.sim().now();
  busy_.resize(app_.services().size());
  for (const auto& svc : app_.services()) {
    busy_[svc->id().value()] = svc->cpu_busy_integral();
  }
}

double UtilizationTracker::utilization(const Service& service) const {
  const SimTime elapsed = app_.sim().now() - epoch_start_;
  if (elapsed <= 0) return 0.0;
  const std::size_t i = service.id().value();
  const double busy0 = i < busy_.size() ? busy_[i] : 0.0;
  const double busy = service.cpu_busy_integral() - busy0;
  const double capacity =
      service.cpu_capacity() * static_cast<double>(elapsed);
  return capacity > 0.0 ? busy / capacity : 0.0;
}

}  // namespace sora
