// CausalLab: COZ-style causal what-if profiling by counterfactual
// co-simulation.
//
// Virtual-speedup profilers answer "which component, if made faster, would
// actually move the end-to-end metric?" — a causal question correlation
// cannot answer. On real hardware COZ approximates the counterfactual by
// slowing everything else down; a deterministic simulator can do better and
// *run* the counterfactual: re-execute the experiment from the same seeds
// with exactly one perturbation applied from a checkpoint onward. The two
// runs share every RNG draw, so they are bit-identical up to the checkpoint
// and carry identical TraceIds throughout — the measured deltas (Δp99,
// Δgoodput, Δknee) and the per-call-graph-edge latency attribution from
// differential span alignment are exact causal effects, not estimates.
//
// Mechanics: each counterfactual is a fresh Experiment built by the caller's
// builder with one extra event scheduled before start, firing at the
// checkpoint to apply the perturbation (service-time scale via
// set_demand_scale, which refreshes the samplers without changing the draw
// count; entry-pool resize; admission-cap bound shift). Scheduling one extra
// event shifts later event sequence numbers uniformly and so preserves FIFO
// order among all other events — determinism is argued structurally and
// *proved* per round by a control re-run (no perturbation) that must match
// the primary run's simulator event digest and trace-warehouse digest
// exactly. Counterfactuals fan out over SweepRunner; results are
// index-ordered, so a 4-thread profile is bit-identical to a serial one.
//
// The profiler is the observability half of a future digital-twin planner:
// the fork/evaluate primitive built here is what a planner would search
// over before committing a knob change to the live system.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/causal/profile.h"

namespace sora {

struct CausalLabOptions {
  /// Sim time at which perturbations activate (counterfactual fork point).
  SimTime checkpoint = 0;
  /// Measurement window after the checkpoint; 0 = to the end of the run.
  SimTime window = 0;
  /// Virtual speedups evaluated per service (demand scale; < 1 = faster).
  std::vector<double> speedup_factors = {0.75, 0.9};
  /// Entry-pool what-if: evaluates +delta and -delta threads per replica
  /// (0 disables pool what-ifs).
  int pool_delta = 2;
  /// Services to profile (names); empty = every service in the app.
  std::vector<std::string> services;
  /// SweepRunner worker threads for the counterfactual fan (0 = default).
  int threads = 0;
  /// Regime label stamped into the profile ("calibrated", "overload", ...).
  std::string scenario = "default";
};

class CausalLab {
 public:
  /// Builds one complete, un-started Experiment (workload + control planes
  /// configured, same seed every call). Invoked once for the primary
  /// baseline, once for the control re-run, and once per counterfactual —
  /// concurrently from SweepRunner workers, so it must be safe to call from
  /// multiple threads (each call only touches its own Experiment).
  using Builder = std::function<std::unique_ptr<Experiment>()>;

  CausalLab(Builder builder, CausalLabOptions options);

  /// Execute the full profiling round: primary baseline, control re-run,
  /// counterfactual fan, attribution, ranking, cross-validation. Appends
  /// controller="causal" records to the baseline's decision log and, when
  /// the baseline has a ctl plane, publishes the profile to /causalz.
  obs::CausalProfile run();

  /// The primary baseline experiment. Valid after run(); kept alive so its
  /// ctl server (if any) keeps serving the published profile.
  Experiment& baseline() { return *baseline_; }

  /// Render a profile collection as the /causalz JSON document.
  static std::string profiles_json(
      const std::vector<obs::CausalProfile>& profiles);
  /// Publish profiles to an experiment's ctl plane (no-op without one).
  static void publish(Experiment& exp,
                      const std::vector<obs::CausalProfile>& profiles);

 private:
  struct WindowOutcome {
    double p99_ms = 0.0;
    double goodput = 0.0;  ///< in-SLA served traces per second
    std::size_t traces = 0;
  };

  std::unique_ptr<Experiment> build_one(bool with_digest) const;
  std::vector<obs::Perturbation> plan_perturbations(Application& app) const;
  obs::CausalEffect evaluate(const obs::Perturbation& p) const;
  WindowOutcome window_outcome(Experiment& exp) const;
  void append_decision_records(const obs::CausalProfile& profile);

  Builder builder_;
  CausalLabOptions options_;
  SimTime window_ = 0;  ///< resolved measurement window
  WindowOutcome base_outcome_;
  std::unique_ptr<Experiment> baseline_;
};

}  // namespace sora
