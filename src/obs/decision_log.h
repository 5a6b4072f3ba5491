// Control-decision audit log.
//
// One structured record per control-plane decision point answers the
// question the raw timelines cannot: *why* did a control round do what it
// did? Soft-resource rounds (Sora/ConScale) record the full reasoning chain
// — localized critical service, propagated deadline, scatter statistics,
// fitted model diagnostics, and the adapter's action with its reason.
// Hardware rounds (FIRM/HPA/VPA) record the utilization/latency evidence
// and the scale verdict, including explicit "hold" records so quiet rounds
// are distinguishable from missing telemetry.
//
// The log is queryable in-process after a run and exportable as JSONL (one
// record per line) for offline analysis.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.h"

namespace sora::obs {

struct ControlDecisionRecord {
  SimTime at = 0;
  std::string controller;  ///< "sora", "conscale", "firm", "hpa", "vpa"
  std::uint64_t round = 0;

  /// What the decision acted on: a knob label ("cart/threads") for
  /// soft-resource rounds, a service name for hardware rounds.
  std::string target;

  // -- monitoring evidence ----------------------------------------------------
  std::string critical_service;  ///< localization verdict ("" = none)
  double critical_utilization = 0.0;
  double critical_pcc = 0.0;
  std::size_t traces_analyzed = 0;
  double observed_p99_ms = 0.0;  ///< hardware scalers' SLO evidence
  double observed_utilization = 0.0;

  // -- deadline propagation (soft rounds) -------------------------------------
  bool deadline_valid = false;
  SimTime rt_threshold = 0;      ///< propagated local deadline
  SimTime mean_upstream_pt = 0;  ///< mean upstream processing time

  // -- estimation (soft rounds) -----------------------------------------------
  bool estimate_valid = false;
  std::size_t scatter_points = 0;  ///< raw samples fed to the model
  int recommended = 0;
  double knee_concurrency = 0.0;
  double knee_value = 0.0;
  double peak_concurrency = 0.0;
  double peak_value = 0.0;
  int degree_used = 0;
  double r_squared = 0.0;
  double good_fraction = 1.0;
  std::string estimate_failure;  ///< non-empty when !estimate_valid

  // -- SLO evidence (slo-monitor episode records) -------------------------------
  double fast_burn = 0.0;   ///< fast-window burn rate at the decision point
  double slow_burn = 0.0;   ///< slow-window burn rate
  double peak_burn = 0.0;   ///< peak fast burn over the episode (close records)
  SimTime episode_duration = 0;  ///< episode length (close records)

  // -- admission control ---------------------------------------------------------
  /// Admission policy on controller=="admission" records (token_bucket,
  /// aimd, gradient, knee_coupled); empty otherwise.
  std::string policy;
  double admission_limit = 0.0;  ///< effective concurrency/rate limit
  SimTime remaining_deadline = 0;  ///< deadline - now at the decision (0=none)
  std::string priority;            ///< "high" / "batch"

  // -- bi-level / gradient-descent controllers ----------------------------------
  /// Per-service latency target assigned by a global credit allocator
  /// (autothrottle records); 0 when the record carries no target.
  double latency_target_ms = 0.0;
  /// Objective value the allocator/gradient stepper evaluated this round
  /// (lsram records); meaningful only when objective_valid is set.
  double objective = 0.0;
  bool objective_valid = false;

  // -- fault injection ----------------------------------------------------------
  /// Fault kind on controller=="fault" records (crash_instance,
  /// cpu_limit_step, span_dropout, scatter_dropout, control_stall); empty
  /// on ordinary controller records.
  std::string fault_kind;

  // -- causal profiling -----------------------------------------------------------
  /// Ranked causal verdict on controller=="causal" records: the what-if
  /// label whose effect the record describes, the measured tail-latency
  /// delta, and the full service ranking ("cart>front-end>..."). `target`
  /// carries the causal pick, `critical_service` the Pearson pick the round
  /// cross-validated against.
  std::string causal_perturbation;
  double causal_delta_p99_ms = 0.0;
  std::string causal_rank;

  // -- runtime control (ctl plane) ----------------------------------------------
  /// The verbatim command line on controller=="ctl" records. The pair
  /// (at, command) is the replay script: re-applying these at the same
  /// safepoints reproduces the run byte-identically.
  std::string command;

  // -- verdict ------------------------------------------------------------------
  /// "applied", "explored", "proportional", "none", "stalled" (soft);
  /// "scale_up", "scale_down", "scale_out", "scale_in", "hold", "stalled"
  /// (hardware); "episode_start", "episode_end" (slo-monitor); "crash",
  /// "crash_refused", "restart", "cpu_step", "fault_start", "fault_end"
  /// (fault injector).
  std::string action;
  std::string reason;  ///< human-readable why
  int old_size = 0;    ///< pool per-replica size (soft)
  int new_size = 0;
  double old_cores = 0.0;  ///< CPU limit (hardware vertical)
  double new_cores = 0.0;
  int old_replicas = 0;  ///< replica count (hardware horizontal)
  int new_replicas = 0;

  /// Render this record as one JSON object (the JSONL line body).
  std::string to_json() const;
};

class DecisionLog {
 public:
  void append(ControlDecisionRecord record) {
    records_.push_back(std::move(record));
  }

  const std::vector<ControlDecisionRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// All records from one controller, in order.
  std::vector<const ControlDecisionRecord*> by_controller(
      const std::string& controller) const;
  /// Records whose action matches (e.g. every "applied").
  std::vector<const ControlDecisionRecord*> by_action(
      const std::string& action) const;
  /// Count of records with the given action.
  std::size_t count_action(const std::string& action) const;

  /// One JSON object per line, in append order.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<ControlDecisionRecord> records_;
};

}  // namespace sora::obs
