#include "autoscale/controller.h"

namespace sora {

const char* to_string(ControlAction::Kind kind) {
  switch (kind) {
    case ControlAction::Kind::kPoolResize:
      return "pool_resize";
    case ControlAction::Kind::kCores:
      return "cores";
    case ControlAction::Kind::kReplicas:
      return "replicas";
    case ControlAction::Kind::kAdmissionTarget:
      return "admission_target";
    case ControlAction::Kind::kLatencyTarget:
      return "latency_target";
  }
  return "unknown";
}

Controller::Controller(Simulator& sim, SimTime period)
    : sim_(sim), period_(period) {}

void Controller::start() {
  if (running_) return;
  running_ = true;
  begin();
  tick_ = sim_.schedule_periodic(period_, [this] { tick(); });
}

void Controller::stop() {
  running_ = false;
  tick_.cancel();
}

std::span<const ControlAction> Controller::round() {
  ++rounds_;
  const SimTime now = sim_.now();

  if (stalled_) {
    // The control plane is down (fault injection): no observation, no
    // decision — but the skipped round must still leave an auditable
    // record, so a gap in decisions is never ambiguous between "controller
    // chose nothing" and "controller never ran". Telemetry windows are left
    // untouched; the first round after the stall ends evaluates evidence
    // spanning the whole outage.
    if (metrics_ != nullptr) {
      metrics_->counter("control.rounds_stalled", {{"controller", name()}})
          .add();
    }
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.action = "stalled";
    rec.fault_kind = "control_stall";
    rec.reason = "control round skipped: control plane stalled";
    record_decision(std::move(rec));
    return {};
  }

  if (metrics_ != nullptr) {
    metrics_->counter("control.rounds", {{"controller", name()}}).add();
  }

  observe(now);
  const std::size_t first = actions_.size();
  decide(now);
  const auto emitted = std::span<const ControlAction>(actions_).subspan(first);
  // Counted once decide() is done rather than in emit(): the registry lists
  // series in creation order, and this keeps "control.actions" behind every
  // series decide() itself creates, wherever in decide() an action fell.
  if (metrics_ != nullptr) {
    for (const ControlAction& a : emitted) {
      metrics_
          ->counter("control.actions",
                    {{"controller", name()}, {"kind", to_string(a.kind)}})
          .add();
    }
  }
  return emitted;
}

void Controller::emit(ControlAction action) {
  action.at = sim_.now();
  action.round = rounds_;
  if (action.reason.empty()) action.reason = "no rationale produced";
  if (metrics_ != nullptr && (action.kind == ControlAction::Kind::kCores ||
                              action.kind == ControlAction::Kind::kReplicas)) {
    metrics_
        ->counter("scale.events",
                  {{"controller", name()},
                   {"service", action.target},
                   {"kind", action.kind == ControlAction::Kind::kReplicas
                                ? "horizontal"
                                : "vertical"}})
        .add();
  }
  actions_.push_back(std::move(action));
  for (const ActionListener& fn : listeners_) fn(actions_.back());
}

void Controller::record_decision(obs::ControlDecisionRecord rec) {
  if (decision_log_ == nullptr) return;
  rec.controller = name();
  rec.round = rounds_;
  if (rec.reason.empty()) rec.reason = "no rationale produced";
  decision_log_->append(std::move(rec));
}

}  // namespace sora
