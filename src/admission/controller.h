// Per-service admission control and overload protection.
//
// The controller sits at a service's front door, between the caller (load
// balancer) and the replica queues. For every incoming request it makes one
// decision — admit or shed — from three ingredients:
//
//   1. an admission policy bounding the service's concurrent load: a static
//      token bucket, an AIMD or gradient-based (Vegas/Gradient2 style)
//      adaptive concurrency limit driven by observed RTT vs. min-RTT, or a
//      knee-coupled limit pinned to the Sora framework's current knee
//      estimate (the concurrency where extra load stops buying goodput);
//   2. CoDel-style deadline shedding: a request whose remaining propagated
//      deadline is smaller than the service's min-RTT estimate cannot make
//      its SLA no matter what, so it is rejected in ~0 time instead of
//      queueing past it;
//   3. priority awareness: batch traffic is admitted only while load is
//      below a configurable fraction of the limit, so interactive traffic
//      keeps the headroom under overload.
//
// Every shed appends a decision-log record (policy, reason, current limit,
// remaining deadline, priority) and bumps labeled MetricsRegistry counters,
// so shed counts are reconcilable across the three observability surfaces.
#pragma once

#include <cstdint>
#include <string>

#include "admission/request.h"
#include "common/time.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"

namespace sora {

enum class AdmissionPolicy {
  kNone,         ///< admit everything (deadline shedding may still apply)
  kTokenBucket,  ///< static rate limit
  kAimd,         ///< additive-increase / multiplicative-decrease limit
  kGradient,     ///< Vegas/Gradient2-style limit from RTT vs min-RTT
  kKneeCoupled,  ///< limit pinned to the published SCG knee estimate
};

const char* to_string(AdmissionPolicy policy);

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kGradient;

  // -- token bucket -----------------------------------------------------------
  double tokens_per_sec = 1000.0;
  double bucket_burst = 100.0;  ///< bucket capacity (tokens)

  // -- concurrency limits (AIMD / gradient / knee-coupled) --------------------
  double initial_limit = 32.0;
  double min_limit = 2.0;
  double max_limit = 4096.0;

  // -- AIMD -------------------------------------------------------------------
  /// RTT above this is congestion; 0 = use 2x the current min-RTT estimate.
  SimTime aimd_latency_threshold = 0;

  // -- knee coupling ----------------------------------------------------------
  /// Admitted concurrency cap = knee * headroom (aggregate across replicas).
  double knee_headroom = 1.0;
};

/// The outcome of one admission decision.
struct AdmissionDecision {
  bool admit = true;
  /// Shed reason: "concurrency_limit", "knee_limit", "no_tokens",
  /// "deadline"; empty for admits.
  const char* reason = "";
  double limit = 0.0;            ///< effective limit at decision time
  SimTime remaining_deadline = 0;  ///< deadline - now (0 = no deadline)
};

class AdmissionController {
 public:
  AdmissionController(std::string service, AdmissionOptions options);

  /// Decide whether to admit a request arriving `now`. Sheds are counted,
  /// logged and metered here; admits must be confirmed with on_admit().
  AdmissionDecision decide(const RequestMeta& meta, SimTime now);

  /// Confirm an admit: the request entered the service.
  void on_admit(SimTime now);

  /// Completion feedback: one admitted request departed with the given
  /// service-level RTT; `ok` is false for error responses (aborted visits).
  /// Drives the adaptive limiters and the min-RTT estimate.
  void on_departure(SimTime now, SimTime rtt, bool ok);

  /// Knee publication hook (Sora framework): the current SCG knee estimate
  /// in *aggregate* concurrency across the service's replicas. Under
  /// kKneeCoupled the admitted-concurrency cap follows knee * headroom.
  void set_knee(double aggregate_knee, SimTime now);

  // -- runtime control (ctl plane) --------------------------------------------

  /// Retarget the knee-coupled headroom at runtime. Under kKneeCoupled the
  /// limit is recomputed immediately from the last published knee; other
  /// policies pick it up at the next knee publication.
  void set_knee_headroom(double headroom, SimTime now);
  /// Re-clamp the adaptive limit range (and the current limit) to
  /// [min_limit, max_limit]; values <= 0 keep the existing bound.
  void set_limit_bounds(double min_limit, double max_limit, SimTime now);

  // -- introspection ----------------------------------------------------------

  const std::string& service() const { return service_; }
  const AdmissionOptions& options() const { return options_; }
  AdmissionPolicy policy() const { return options_.policy; }
  double current_limit() const { return limit_; }
  int in_flight() const { return in_flight_; }
  double knee() const { return knee_; }
  std::uint64_t knee_updates() const { return knee_updates_; }
  /// Current min-RTT estimate (0 until the first departure).
  SimTime min_rtt() const { return min_rtt_; }

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t shed_by_priority(Priority p) const {
    return shed_by_priority_[static_cast<int>(p)];
  }

  // -- observability wiring ---------------------------------------------------

  /// Append one record per shed (action "shed") and per limit change
  /// (action "limit_update") to this log.
  void set_decision_log(obs::DecisionLog* log) { log_ = log; }
  /// Count admits/sheds and export the current limit as a gauge.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  void refill_tokens(SimTime now);
  void note_limit_change(double old_limit, SimTime now, const char* why);
  void record_shed(const RequestMeta& meta, SimTime now,
                   const AdmissionDecision& d);
  /// Effective congestion threshold for AIMD (option or 2x min-RTT).
  SimTime aimd_threshold() const;

  std::string service_;
  AdmissionOptions options_;

  double limit_ = 0.0;     ///< current concurrency limit (unused for tokens)
  int in_flight_ = 0;      ///< admitted requests not yet departed
  double knee_ = 0.0;      ///< last published aggregate knee (0 = none yet)
  std::uint64_t knee_updates_ = 0;

  // Token bucket state.
  double tokens_ = 0.0;
  SimTime last_refill_ = 0;

  // RTT tracking: windowed min (deadline shedding, gradient floor) and a
  // long-term EWMA (gradient numerator).
  SimTime min_rtt_ = 0;
  SimTime window_min_rtt_ = 0;  ///< min within the current window
  SimTime min_rtt_window_start_ = 0;
  double ewma_rtt_ = 0.0;

  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t shed_by_priority_[kNumPriorities] = {0, 0};

  obs::DecisionLog* log_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* admit_counter_ = nullptr;
  obs::Gauge* limit_gauge_ = nullptr;
};

}  // namespace sora
