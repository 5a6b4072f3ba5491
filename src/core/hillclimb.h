// Step-by-step online tuning baseline.
//
// Section 3.1 of the paper dismisses "step-by-step heuristic approaches
// such as Bayesian optimization" for runtime concurrency adaptation because
// they converge too slowly for bursty workloads. This class implements the
// classic online hill climber those systems reduce to in the single-knob
// case: each control period it measures the knob's goodput, compares
// against the previous period, and keeps or reverses its step direction.
// The ablation bench (ablation_convergence) races it against the SCG model
// from identical cold starts.
#pragma once

#include <memory>

#include "metrics/knob.h"
#include "metrics/scatter_sampler.h"
#include "sim/simulator.h"
#include "trace/tracer.h"

namespace sora {

struct HillClimbOptions {
  SimTime rt_threshold = msec(50);  ///< goodput deadline (static — no
                                    ///< propagation; that is the point)
};

class HillClimbTuner {
 public:
  /// Upper bound of the pool sizes the climber tries.
  static constexpr int kMaxSize = 512;

  HillClimbTuner(Simulator& sim, Tracer& tracer, const ResourceKnob& knob,
                 HillClimbOptions options = {});
  ~HillClimbTuner();

  HillClimbTuner(const HillClimbTuner&) = delete;
  HillClimbTuner& operator=(const HillClimbTuner&) = delete;

  void start();
  void stop();

  int current_size() const { return knob_.current_size(); }
  std::uint64_t steps_taken() const { return steps_; }
  const ResourceKnob& knob() const { return knob_; }

 private:
  void tick();
  double window_goodput() const;

  Simulator& sim_;
  ResourceKnob knob_;
  HillClimbOptions options_;
  std::unique_ptr<ScatterSampler> sampler_;

  int direction_ = +1;
  double last_goodput_ = -1.0;
  SimTime window_start_ = 0;
  std::uint64_t steps_ = 0;
  EventHandle tick_;
  bool running_ = false;
};

}  // namespace sora
