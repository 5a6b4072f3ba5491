#include "obs/decision_log.h"

#include "obs/json.h"

namespace sora::obs {

std::string ControlDecisionRecord::to_json() const {
  JsonObject obj;
  obj.field("at_us", at)
      .field("controller", controller)
      .field("round", round)
      .field("target", target)
      .field("action", action)
      .field("reason", reason);

  if (!critical_service.empty()) {
    obj.field("critical_service", critical_service)
        .field("critical_utilization", critical_utilization)
        .field("critical_pcc", critical_pcc);
  }
  if (traces_analyzed > 0) {
    obj.field("traces_analyzed", static_cast<std::uint64_t>(traces_analyzed));
  }
  if (observed_p99_ms > 0.0) obj.field("observed_p99_ms", observed_p99_ms);
  if (observed_utilization > 0.0) {
    obj.field("observed_utilization", observed_utilization);
  }

  obj.field("deadline_valid", deadline_valid);
  if (deadline_valid) {
    obj.field("rt_threshold_ms", to_msec(rt_threshold))
        .field("mean_upstream_pt_ms", to_msec(mean_upstream_pt));
  }

  obj.field("estimate_valid", estimate_valid)
      .field("scatter_points", static_cast<std::uint64_t>(scatter_points));
  if (estimate_valid) {
    obj.field("recommended", recommended)
        .field("knee_concurrency", knee_concurrency)
        .field("knee_value", knee_value)
        .field("peak_concurrency", peak_concurrency)
        .field("peak_value", peak_value)
        .field("degree_used", degree_used)
        .field("r_squared", r_squared);
  } else if (!estimate_failure.empty()) {
    obj.field("estimate_failure", estimate_failure);
  }
  if (good_fraction < 1.0) obj.field("good_fraction", good_fraction);

  if (!policy.empty()) {
    obj.field("policy", policy).field("admission_limit", admission_limit);
    if (remaining_deadline != 0) {
      obj.field("remaining_deadline_ms", to_msec(remaining_deadline));
    }
    if (!priority.empty()) obj.field("priority", priority);
    if (!estimate_valid && knee_concurrency > 0.0) {
      obj.field("knee_concurrency", knee_concurrency);
    }
  }

  if (latency_target_ms > 0.0) obj.field("latency_target_ms", latency_target_ms);
  if (objective_valid) obj.field("objective", objective);

  if (!fault_kind.empty()) obj.field("fault_kind", fault_kind);
  if (!causal_rank.empty() || !causal_perturbation.empty()) {
    if (!causal_perturbation.empty()) {
      obj.field("causal_perturbation", causal_perturbation);
    }
    obj.field("causal_delta_p99_ms", causal_delta_p99_ms)
        .field("causal_rank", causal_rank);
  }
  if (!command.empty()) obj.field("command", command);

  if (fast_burn != 0.0 || slow_burn != 0.0) {
    obj.field("fast_burn", fast_burn).field("slow_burn", slow_burn);
  }
  if (peak_burn != 0.0) obj.field("peak_burn", peak_burn);
  if (episode_duration != 0) {
    obj.field("episode_duration_s", to_sec(episode_duration));
  }

  if (old_size != 0 || new_size != 0) {
    obj.field("old_size", old_size).field("new_size", new_size);
  }
  if (old_cores != 0.0 || new_cores != 0.0) {
    obj.field("old_cores", old_cores).field("new_cores", new_cores);
  }
  if (old_replicas != 0 || new_replicas != 0) {
    obj.field("old_replicas", old_replicas).field("new_replicas", new_replicas);
  }
  return obj.str();
}

std::vector<const ControlDecisionRecord*> DecisionLog::by_controller(
    const std::string& controller) const {
  std::vector<const ControlDecisionRecord*> out;
  for (const auto& r : records_) {
    if (r.controller == controller) out.push_back(&r);
  }
  return out;
}

std::vector<const ControlDecisionRecord*> DecisionLog::by_action(
    const std::string& action) const {
  std::vector<const ControlDecisionRecord*> out;
  for (const auto& r : records_) {
    if (r.action == action) out.push_back(&r);
  }
  return out;
}

std::size_t DecisionLog::count_action(const std::string& action) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.action == action) ++n;
  }
  return n;
}

void DecisionLog::write_jsonl(std::ostream& os) const {
  for (const auto& r : records_) os << r.to_json() << '\n';
}

}  // namespace sora::obs
