// Workload generators (stand-in for the RUBBoS client).
//
// OpenLoopGenerator produces a non-homogeneous Poisson arrival process whose
// rate follows a WorkloadTrace (thinning sampler — exact). Request classes
// are drawn from a configurable mix that can change at runtime (the paper's
// "system state drifting" experiment flips light -> heavy mid-run).
//
// ClosedLoopGenerator models N concurrent users with exponential think
// times, the RUBBoS model the paper uses for its validation sweeps
// (goodput vs. "# Users").
#pragma once

#include <functional>
#include <vector>

#include "admission/request.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/simulator.h"
#include "workload/load_target.h"
#include "workload/traces.h"

namespace sora {

/// Probability mix over request classes.
class RequestMix {
 public:
  /// Single-class mix.
  explicit RequestMix(int request_class = 0);
  /// Weighted mix: {class, weight} pairs; weights need not sum to 1.
  RequestMix(std::initializer_list<std::pair<int, double>> weights);

  void set_weights(std::vector<std::pair<int, double>> weights);
  int sample(Rng& rng) const;

  /// Tag a request class with an admission priority (default: every class is
  /// kHigh). Returns *this for chaining.
  RequestMix& with_priority(int request_class, Priority priority);
  Priority priority_of(int request_class) const;

 private:
  std::vector<std::pair<int, double>> weights_;
  std::vector<std::pair<int, Priority>> priorities_;
  double total_ = 0.0;
};

/// Callback observing each completed request: (injection time, class, rt,
/// served). `ok == false` means admission control shed the request.
using CompletionObserver = std::function<void(SimTime injected_at,
                                              int request_class, SimTime rt,
                                              bool ok)>;

/// A pluggable load driver the harness can own alongside (or instead of)
/// its built-in generators. The harness binds the source once — before
/// start() — handing it the simulator, the injection target, a seed to
/// derive every internal RNG stream from, and the observer completions must
/// be reported through; everything downstream of the seam (latency
/// recording, SLO accounting, admission, faults) then composes unchanged.
/// ReplayWorkloadSource (workload/replay.h) is the cluster-trace
/// implementation.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  virtual void bind(Simulator& sim, LoadTarget& target, std::uint64_t seed,
                    CompletionObserver observer) = 0;
  /// Begin injecting at sim.now(); requires bind() first.
  virtual void start() = 0;
  virtual void stop() = 0;
  /// Requests injected so far (across the source's internal streams).
  virtual std::uint64_t injected() const = 0;
  virtual const char* name() const = 0;
};

class OpenLoopGenerator {
 public:
  OpenLoopGenerator(Simulator& sim, LoadTarget& target, WorkloadTrace trace,
                    std::uint64_t seed);

  /// Begin injecting at sim.now(); stops after the trace duration.
  void start();
  /// Stop early.
  void stop();

  void set_mix(RequestMix mix) { mix_ = std::move(mix); }

  void set_observer(CompletionObserver obs) { observer_ = std::move(obs); }

  std::uint64_t injected() const { return injected_; }
  const WorkloadTrace& trace() const { return trace_; }

 private:
  void schedule_next();

  Simulator& sim_;
  LoadTarget& target_;
  WorkloadTrace trace_;
  Rng rng_;
  RequestMix mix_;
  CompletionObserver observer_;
  SimTime start_time_ = 0;
  bool running_ = false;
  std::uint64_t injected_ = 0;
  EventHandle next_;
};

class ClosedLoopGenerator {
 public:
  /// `think_time_mean` is the exponential think time between a user's
  /// response and their next request.
  ClosedLoopGenerator(Simulator& sim, LoadTarget& target, int num_users,
                      SimTime think_time_mean, std::uint64_t seed);

  void start();
  void stop();

  /// Adjust the user population at runtime. Growing spawns users
  /// immediately; shrinking retires users as they finish their think/req.
  void set_users(int num_users);
  int users() const { return target_users_; }

  /// Follow a workload trace: every `update_period` the user population is
  /// set to the trace value at the current time (trace "rates" read as user
  /// counts). This is the RUBBoS-style closed-loop mode the paper drives
  /// its bursty-trace experiments with. Stops updating (and retires all
  /// users) after the trace duration.
  void follow_trace(const WorkloadTrace& trace, SimTime update_period = sec(1));

  void set_mix(RequestMix mix) { mix_ = std::move(mix); }
  void set_observer(CompletionObserver obs) { observer_ = std::move(obs); }

  std::uint64_t injected() const { return injected_; }

 private:
  void spawn_user();
  void user_loop();

  Simulator& sim_;
  LoadTarget& target_;
  int target_users_;
  SimTime think_mean_;
  Rng rng_;
  RequestMix mix_;
  CompletionObserver observer_;
  bool running_ = false;
  int live_users_ = 0;
  std::uint64_t injected_ = 0;
  EventHandle trace_tick_;
};

}  // namespace sora
