// The Controller interface: one contract for every control plane.
//
// Sora/ConScale, the hardware autoscalers (FIRM/HPA/VPA) and the bi-level
// (Autothrottle) and gradient-descent (LSRAM) baselines all follow the same
// round structure — observe telemetry gathered since the previous round,
// decide, and emit the actions applied — so this base class owns the
// periodic scheduling, stall short-circuit, round counting, decision-log
// wiring and the action path once:
//
//   round():  bump round counter
//             -> stalled?  append one auditable "stalled" record and return
//             -> observe(now)  (virtual: ingest the telemetry window)
//             -> decide(now)   (virtual: act; emit() each applied action)
//             -> count the round's actions ("control.actions")
//
//   emit():   stamp round/time, guarantee a non-empty reason, count
//             hardware scales ("scale.events"), append to actions(), call
//             the action listeners
//
// emit() is the only way an action leaves a controller, so actions(), the
// metrics and the listeners see the same sequence (Experiment::link is a
// listener that forwards hardware scales to Sora). The conformance suite
// (tests/test_controller_conformance.cc) asserts the shared contract
// uniformly: byte-identical reruns per seed, no actions before warm-up,
// bounded actions per round, graceful stalls and topology changes, and
// schema-valid decision records for every emitted action.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace sora {

class Service;

/// One action a controller's decide phase applied, in a controller-agnostic
/// shape: the only record of it. The detailed evidence lives in the
/// decision log; the action list is the machine-checkable contract surface
/// (bounded per round, never before warm-up, always carrying a reason).
struct ControlAction {
  enum class Kind {
    kPoolResize,       ///< soft-resource pool size change (old/new_size)
    kCores,            ///< vertical CPU limit change (old/new_cores)
    kReplicas,         ///< horizontal replica change (old/new_replicas)
    kAdmissionTarget,  ///< published admitted-concurrency cap
    kLatencyTarget,    ///< assigned per-service latency target
  };
  Kind kind = Kind::kPoolResize;
  SimTime at = 0;           ///< stamped by Controller::emit()
  std::uint64_t round = 0;  ///< stamped by Controller::emit()
  std::string target;       ///< knob label or service name
  std::string reason;       ///< mandatory; emit() fills a default if empty
  int old_size = 0;
  int new_size = 0;
  double old_cores = 0.0;
  double new_cores = 0.0;
  int old_replicas = 0;
  int new_replicas = 0;
  double admission_target = 0.0;   ///< kAdmissionTarget: published cap
  double latency_target_ms = 0.0;  ///< kLatencyTarget: assigned target
};

const char* to_string(ControlAction::Kind kind);

/// Control period of every controller but Autothrottle: the paper's 15 s,
/// the Kubernetes HPA default sync period. One value for all of them keeps
/// Sora's rounds and a linked hardware scaler's rounds on the same
/// timestamps, which Experiment::link's ordering relies on.
inline constexpr SimTime kControlPeriod = sec(15);

class Controller {
 public:
  /// `period` is the control round cadence; start() schedules the first
  /// round at now() + period.
  Controller(Simulator& sim, SimTime period);
  virtual ~Controller() = default;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Controller tag used in decision records and metric labels ("sora",
  /// "firm", "autothrottle", ...).
  virtual const char* name() const = 0;

  /// Contract: the most actions one round may emit (typically a small
  /// multiple of the managed target count). The conformance suite asserts
  /// every round stays within it.
  virtual std::size_t max_actions_per_round() const = 0;

  SimTime period() const { return period_; }
  Simulator& sim() const { return sim_; }

  /// Schedule the periodic control rounds (idempotent). Calls begin() once
  /// so implementations can open telemetry windows.
  void start();
  void stop();
  bool running() const { return running_; }

  /// Run one control round now and return the actions it emitted (a view
  /// into actions(), valid until the next emit). Exposed for tests and
  /// harness-driven stepping; the scheduled periodic calls exactly this.
  std::span<const ControlAction> round();

  /// Topology changed outside this controller (replica crash/restore, PR-4
  /// fault hooks). Default: no-op. Implementations discard evidence that
  /// described the old topology.
  virtual void on_topology_changed(Service* service, const std::string& why) {
    (void)service;
    (void)why;
  }

  // -- wiring -----------------------------------------------------------------

  /// Attach a control-decision audit log; every round appends at least one
  /// record through record_decision(), which stamps the controller name and
  /// round and guarantees a non-empty reason. Nullptr detaches.
  void set_decision_log(obs::DecisionLog* log) { decision_log_ = log; }
  obs::DecisionLog* decision_log() const { return decision_log_; }

  /// Attach a metrics registry (round/stall/action counters).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  obs::MetricsRegistry* metrics() const { return metrics_; }

  /// Observe every action as emit() applies it, already stamped and
  /// appended to actions(). A listener runs inside the emitting decide(),
  /// before that controller's own decision record for the action, so a
  /// linked framework's reaction (Sora's proportional re-adaptation) lands
  /// in the decision log ahead of the scaler's record.
  using ActionListener = std::function<void(const ControlAction&)>;
  void add_action_listener(ActionListener fn) {
    listeners_.push_back(std::move(fn));
  }

  /// Fault-injection hook: while stalled, round() skips observe/decide and
  /// appends a single "stalled" record instead, leaving telemetry windows
  /// untouched — the first round after the stall ends evaluates evidence
  /// spanning the whole outage.
  void set_stalled(bool stalled) { stalled_ = stalled; }
  bool stalled() const { return stalled_; }

  // -- introspection ----------------------------------------------------------

  std::uint64_t rounds() const { return rounds_; }
  /// Every action ever emitted, in round order (the conformance suite's
  /// warm-up and bounded-actions checks read this).
  const std::vector<ControlAction>& actions() const { return actions_; }

 protected:
  /// Called once from start(), before the first round is scheduled: open
  /// telemetry windows, snapshot utilization epochs.
  virtual void begin() {}

  /// Scheduled periodic entry point; defaults to round(). Override only to
  /// wrap the round (e.g. a profiler scope) — the round structure itself is
  /// not overridable.
  virtual void tick() { round(); }

  /// Observe phase: ingest the telemetry gathered since the previous round
  /// (trace windows, utilization epochs). Not called while stalled.
  virtual void observe(SimTime now) { (void)now; }

  /// Decide phase: act on the observed evidence and emit() each action
  /// applied (none = hold). Implementations append their evidence-rich
  /// decision records via record_decision().
  virtual void decide(SimTime now) = 0;

  /// Record one applied action (see the header comment): "scale.events"
  /// carries labels controller/service/kind.
  void emit(ControlAction action);

  /// Append a decision record: stamps the controller name and current
  /// round, and — the invariant every controller shares — fills a default
  /// reason when the implementation produced none, so no record ever
  /// reaches the log without a rationale.
  void record_decision(obs::ControlDecisionRecord rec);

 private:
  Simulator& sim_;
  SimTime period_;
  EventHandle tick_;
  bool running_ = false;
  bool stalled_ = false;
  std::uint64_t rounds_ = 0;
  std::vector<ControlAction> actions_;
  std::vector<ActionListener> listeners_;
  obs::DecisionLog* decision_log_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace sora
