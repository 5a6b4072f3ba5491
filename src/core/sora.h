// The Sora framework (Section 4).
//
// Composes the four SCG phases into a runtime control loop that coordinates
// with any hardware-only autoscaler:
//
//   Monitoring  — distributed traces (Tracer -> TraceWarehouse) + CPU probes
//   Estimator   — per-knob scatter sampling + SCG estimation
//   Reallocation — Concurrency Adapter applies recommendations; hardware
//                  scale events trigger proportional re-adaptation and
//                  model resets
//
// Configured with ModelKind::kScatterConcurrencyThroughput and deadline
// propagation disabled, the same loop implements the ConScale baseline
// (make_conscale_options).
//
// SoraFramework implements the shared Controller contract
// (autoscale/controller.h): localization runs in observe(), the per-knob
// estimate/adapt loop in decide(), and the harness drives it exactly like
// every other controller.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "autoscale/controller.h"
#include "core/adapter.h"
#include "core/deadline.h"
#include "core/estimator.h"
#include "core/localization.h"
#include "core/scg_model.h"
#include "metrics/knob.h"
#include "obs/decision_log.h"
#include "sim/simulator.h"
#include "trace/warehouse.h"

namespace sora {

struct SoraFrameworkOptions {
  /// Control period of the adaptation loop (aligned with the hardware
  /// autoscaler's 15 s default).
  SimTime control_period = sec(15);

  /// End-to-end SLA driving deadline propagation.
  SimTime sla = msec(400);

  /// SCG (Sora) or SCT (ConScale).
  ModelKind model = ModelKind::kScatterConcurrencyGoodput;

  /// Enable the RT Threshold Propagation Phase. Disabled for ConScale and
  /// for the deadline-propagation ablation (a fixed default threshold is
  /// used instead).
  bool deadline_propagation = true;

  /// Adapt only knobs associated with the currently-critical service
  /// (false = adapt every managed knob each round).
  bool adapt_only_critical = false;

  EstimatorOptions estimator;
  AdapterOptions adapter;
  LocalizerOptions localizer;
  DeadlineOptions deadline;
};

/// Options preset for the ConScale baseline: SCT model, no deadlines.
SoraFrameworkOptions make_conscale_options();

class Application;

class SoraFramework : public Controller {
 public:
  SoraFramework(Application& app, TraceWarehouse& warehouse,
                SoraFrameworkOptions options = {});

  /// Register a soft-resource knob for runtime adaptation.
  void manage(const ResourceKnob& knob);

  /// "sora" for the SCG model, "conscale" for the SCT baseline; used as the
  /// controller tag in decision records and metric labels.
  const char* name() const override;
  ControllerNeeds needs() const override {
    ControllerNeeds n;
    n.scatter_samples = true;
    n.traces = true;
    return n;
  }
  /// Per knob and round: at most one pool resize plus one knee publication
  /// to the admission layer.
  std::size_t max_actions_per_round() const override {
    return knobs_.size() * 2;
  }

  /// Notify the framework that a hardware autoscaler changed `service`
  /// (wired by the harness to Autoscaler::add_scale_listener). Performs the
  /// immediate proportional re-adaptation of Section 4.1 and resets the
  /// affected knobs' learned curves.
  void on_hardware_scaled(Service* service, double old_cores, double new_cores,
                          int old_replicas, int new_replicas);

  /// Notify the framework that the replica topology of `service` changed
  /// outside the paired autoscaler (replica crash/restore). The current
  /// localization window analyzed a topology that no longer exists, so it
  /// restarts, and the affected knobs' learned scatter is discarded; a
  /// "relocalize" record documents why.
  void on_topology_changed(Service* service, const std::string& why) override;

  // -- introspection -----------------------------------------------------------

  ConcurrencyEstimator& estimator() { return estimator_; }
  ConcurrencyAdapter& adapter() { return adapter_; }
  const CriticalServiceReport& last_report() const { return last_report_; }
  /// The localization engine (scale guards read its per-round op count).
  const CriticalServiceLocalizer& localizer() const { return localizer_; }
  const std::vector<ResourceKnob>& managed() const { return knobs_; }
  const SoraFrameworkOptions& options() const { return options_; }
  std::uint64_t control_rounds() const { return rounds(); }

  /// One last-good knee estimate per knob that has ever produced a valid
  /// fit. For the ctl plane's /statusz: the per-replica knee the adapter is
  /// currently steering toward, with the round/time it was learned.
  struct KnobKnee {
    std::string label;            ///< knob label ("cart/threads")
    std::string service;          ///< owning service name ("" if unresolved)
    double knee_concurrency = 0;  ///< per-replica knee location
    int recommended = 0;          ///< rounded setting the adapter targets
    SimTime at = 0;               ///< when the estimate was learned
    std::uint64_t round = 0;      ///< control round that learned it
  };
  std::vector<KnobKnee> current_knees() const;

  /// Run one control round immediately (exposed for tests).
  void control_round();

 protected:
  void begin() override;
  void tick() override { control_round(); }
  void observe(SimTime now) override;
  std::vector<ControlAction> decide(SimTime now) override;

 private:
  Application& app_;
  TraceWarehouse& warehouse_;
  SoraFrameworkOptions options_;

  ConcurrencyEstimator estimator_;
  ConcurrencyAdapter adapter_;
  CriticalServiceLocalizer localizer_;
  CriticalServiceReport last_report_;

  std::vector<ResourceKnob> knobs_;

  // Localization verdict resolved in observe(), shared by every knob's
  // record in the same round's decide().
  std::string critical_name_;
  double critical_util_ = 0.0;
  double critical_pcc_ = 0.0;

  // knob label -> sim time of the last valid estimate (drives the
  // "estimate age" gauge: how stale is the knowledge the knob runs on).
  std::map<std::string, SimTime> last_valid_estimate_;
  /// Last estimate that passed the model's sample gates, per knob: when a
  /// round's scatter window is rejected (too few samples, no knee), the
  /// knob holds this knee instead of moving blind, and the decision record
  /// says so.
  struct LastGoodEstimate {
    ConcurrencyEstimate estimate;
    SimTime at = 0;
    std::uint64_t round = 0;
  };
  std::map<std::string, LastGoodEstimate> last_good_;
};

}  // namespace sora
