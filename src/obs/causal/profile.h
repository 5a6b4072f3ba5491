// Causal profile: the measured effect of each what-if perturbation.
//
// One CausalEffect captures a (checkpoint, perturbation) counterfactual:
// the windowed outcome deltas (p99, goodput, knee) between the baseline run
// and the perturbed fork, plus per-call-graph-edge latency attribution from
// differential span alignment (exact, because both runs share TraceIds).
// A CausalProfile aggregates the effects of one profiling round, ranks
// services by experimentally measured latency causality, and carries the
// control-run identity proof. All ordering is deterministic so the profile
// JSON is bit-stable across serial and threaded evaluation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/causal/perturbation.h"
#include "trace/align.h"

namespace sora::obs {

/// One call-graph edge's latency attribution with resolved service names
/// (filled by the lab from DiffSummary::edges, which carries raw ids).
struct EdgeAttribution {
  std::string parent;   ///< caller service ("client" for the entry edge)
  std::string service;  ///< callee service
  std::size_t aligned = 0;
  double mean_delta_ms = 0.0;
  double total_delta_ms = 0.0;
};

struct CausalEffect {
  Perturbation perturbation;
  SimTime checkpoint = 0;  ///< perturbation activation time

  // Windowed outcomes over (checkpoint, checkpoint + window].
  double base_p99_ms = 0.0;
  double cf_p99_ms = 0.0;
  double base_goodput = 0.0;  ///< in-SLA completions per second
  double cf_goodput = 0.0;
  double base_knee = 0.0;  ///< target-service knee concurrency (0 = none)
  double cf_knee = 0.0;

  DiffSummary diff;  ///< raw per-edge attribution (sorted by |delta| desc)
  std::vector<EdgeAttribution> edges;  ///< name-resolved view of diff.edges

  double delta_p99_ms() const { return cf_p99_ms - base_p99_ms; }
  double delta_goodput() const { return cf_goodput - base_goodput; }
  double delta_knee() const { return cf_knee - base_knee; }

  std::string to_json() const;
};

struct CausalProfile {
  std::string scenario;  ///< regime label ("calibrated", "overload", ...)
  SimTime checkpoint = 0;
  SimTime window = 0;  ///< measurement window length after the checkpoint

  // Control-run identity proof: the profiler re-runs the unperturbed
  // baseline and requires bit-identical event streams and traces.
  std::uint64_t control_sim_digest = 0;
  std::uint64_t primary_sim_digest = 0;
  std::uint64_t control_trace_digest = 0;
  std::uint64_t primary_trace_digest = 0;
  bool control_identical = false;

  std::vector<CausalEffect> effects;

  std::string pearson_pick;  ///< the Pearson localizer's critical service
  std::string causal_pick;   ///< head of causal_service_ranking()
  bool agree = false;

  /// Sort effects most-latency-reducing first (delta p99 ascending,
  /// label tie-break) — call once after all effects are collected.
  void sort_effects();

  /// Service names ranked by causal latency impact: for each service with a
  /// speedup perturbation, take its best (most negative) delta p99; order
  /// ascending. The head is the service whose speedup would help tail
  /// latency most — the causal answer to "which service is critical?".
  std::vector<std::string> causal_service_ranking() const;

  /// Compact "a>b>c" rendering of the ranking for decision-log records.
  std::string ranking_string() const;

  std::string to_json() const;
};

}  // namespace sora::obs
