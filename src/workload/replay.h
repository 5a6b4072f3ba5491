// Cluster-trace replay: CSV rate curves driving the thinning generator.
//
// Ingests Alibaba-cluster-trace-style CSV files — a time column plus one
// requests/second column per tenant — and replays each tenant column as a
// piecewise-linear WorkloadTrace through its own OpenLoopGenerator, so the
// exact thinning sampler, request mixes, priorities and the admission path
// all compose unchanged. Parsing fails closed: a malformed file (missing
// columns, non-monotone timestamps, negative or non-finite rates, ragged
// rows) yields an error, never a silently truncated workload.
//
// synthesize_cluster_trace_csv emits a deterministic trace in the same
// format — diurnal baseline, seeded flash-crowd spikes and a fast
// interference overlay per tenant — so benches and CI don't need trace
// files on disk.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace sora {

/// A parsed multi-tenant rate trace: times[i] is row i's timestamp,
/// rows[i][c] the rate of tenant column c at that time.
struct ClusterTrace {
  std::vector<std::string> tenants;
  std::vector<SimTime> times;
  std::vector<std::vector<double>> rows;

  SimTime duration() const { return times.empty() ? 0 : times.back(); }
  /// Tenant column c as a replayable piecewise trace, rates scaled by
  /// `rate_scale`.
  WorkloadTrace tenant_trace(std::size_t c, double rate_scale = 1.0) const;
};

struct ClusterTraceParse {
  bool ok = false;
  std::string error;  ///< empty iff ok
  ClusterTrace trace;
};

/// Parse a cluster-trace CSV. Requirements (all fail closed):
///   - header `time_s,<tenant>,...` with at least one tenant column,
///     every tenant name non-empty and unique;
///   - at least two data rows, every row with the header's column count;
///   - timestamps finite, non-negative seconds, strictly increasing;
///   - rates finite and non-negative.
ClusterTraceParse parse_cluster_trace_csv(std::istream& in);
ClusterTraceParse parse_cluster_trace_csv(const std::string& text);

/// Knobs of the deterministic trace synthesizer. Per tenant: a diurnal
/// sinusoid baseline, `flash_crowds` Gaussian spikes at seeded times, and a
/// small high-frequency interference overlay (a neighbour's noise bleeding
/// into the rate signal). Tenant phases are seeded too, so peaks don't
/// align across tenants.
struct ReplaySynthesisConfig {
  std::uint64_t seed = 7;
  int tenants = 4;
  double duration_s = 600.0;
  double step_s = 5.0;           ///< sample spacing
  double base_rps = 120.0;       ///< diurnal mean per tenant
  int flash_crowds = 2;          ///< spikes per tenant
  double flash_peak = 2.5;       ///< spike height, fraction of base
};

/// Emit a synthetic cluster trace as CSV text (fixed precision: output is
/// byte-stable across platforms for the same config).
std::string synthesize_cluster_trace_csv(const ReplaySynthesisConfig& cfg);

/// WorkloadSource replaying a ClusterTrace: one OpenLoopGenerator per
/// tenant column, each with its own seed stream (salted from the bind seed
/// by column index) and its own RequestMix.
class ReplayWorkloadSource : public WorkloadSource {
 public:
  explicit ReplayWorkloadSource(ClusterTrace trace, double rate_scale = 1.0);

  /// Mix injected for tenant column `c` (default: single-class 0).
  /// Call before bind().
  void set_tenant_mix(std::size_t c, RequestMix mix);

  void bind(Simulator& sim, LoadTarget& target, std::uint64_t seed,
            CompletionObserver observer) override;
  void start() override;
  void stop() override;
  std::uint64_t injected() const override;
  const char* name() const override { return "cluster-trace-replay"; }

  const ClusterTrace& trace() const { return trace_; }
  /// Per-tenant generators; valid after bind().
  const std::vector<std::unique_ptr<OpenLoopGenerator>>& generators() const {
    return generators_;
  }

 private:
  ClusterTrace trace_;
  double rate_scale_;
  std::vector<RequestMix> mixes_;
  std::vector<std::unique_ptr<OpenLoopGenerator>> generators_;
};

}  // namespace sora
