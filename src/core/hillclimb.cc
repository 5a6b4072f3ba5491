#include "core/hillclimb.h"

#include <algorithm>

#include "autoscale/controller.h"
#include "common/log.h"

namespace sora {

constexpr int kStep = 2;  ///< pool-size increment per move
constexpr int kMinSize = 1;
/// Relative goodput change below this counts as "no change" and keeps the
/// current direction (prevents dithering on noise).
constexpr double kTolerance = 0.03;

HillClimbTuner::HillClimbTuner(Simulator& sim, Tracer& tracer,
                               const ResourceKnob& knob,
                               HillClimbOptions options)
    : sim_(sim), knob_(knob), options_(options) {
  sampler_ = std::make_unique<ScatterSampler>(
      sim, tracer, knob, msec(100), options_.rt_threshold,
      static_cast<std::size_t>(kControlPeriod / msec(100)) * 4 + 16);
}

HillClimbTuner::~HillClimbTuner() { stop(); }

void HillClimbTuner::start() {
  if (running_) return;
  running_ = true;
  sampler_->start();
  window_start_ = sim_.now();
  // One evaluation window per step, the other controllers' period.
  tick_ = sim_.schedule_periodic(kControlPeriod, [this] { tick(); });
}

void HillClimbTuner::stop() {
  running_ = false;
  tick_.cancel();
  sampler_->stop();
}

double HillClimbTuner::window_goodput() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const SamplePoint& p : sampler_->points_since(window_start_)) {
    sum += p.goodput;
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

void HillClimbTuner::tick() {
  const double goodput = window_goodput();
  if (last_goodput_ >= 0.0) {
    const double base = std::max(last_goodput_, 1e-9);
    const double change = (goodput - last_goodput_) / base;
    if (change < -kTolerance) {
      direction_ = -direction_;  // worse: go back the other way
    }
    // better or flat: keep climbing in the same direction.
  }
  const int next = std::clamp(knob_.current_size() + direction_ * kStep,
                              kMinSize, kMaxSize);
  if (next != knob_.current_size()) {
    knob_.apply(next);
    ++steps_;
    SORA_DEBUG << "hillclimb: " << knob_.label() << " -> " << next
               << " (goodput " << goodput << ")";
  }
  last_goodput_ = goodput;
  window_start_ = sim_.now();
}

}  // namespace sora
