// Wall-clock overhead profiler for the control plane.
//
// The paper's §6 claims the whole adaptation loop costs sub-second latency
// and <= 5% of one CPU. To substantiate that, the expensive control-path
// stages (polynomial fitting, Kneedle, critical-path extraction,
// localization, deadline propagation, the whole control round) are wrapped
// in scoped wall-clock timers that accumulate per-stage call counts and
// durations. Simulation results are unaffected: the profiler measures host
// time and never feeds back into sim time.
//
// A process-global instance keeps the hot control path free of plumbing.
// Each Simulator is single-threaded, but independent experiments may run
// concurrently on sweep-worker threads (harness::SweepRunner), so the
// per-stage accumulators are guarded by a mutex. Most stages fire once per
// control round; the busiest, `trace.critical_path`, fires once per stored
// trace (the warehouse's store-time marking pass), so record() takes the
// lock and looks the stage up without allocating. Harness consumers
// (ExperimentSummary, bench/micro_model_cost) snapshot-and-diff around the
// region they attribute; note that under a parallel sweep the global
// profiler aggregates stages from all concurrently running experiments, so
// per-experiment deltas are attributable only in serial runs. The profiler
// depends on nothing else and is compiled into sora_common, so every layer,
// the trace warehouse included, can time its stages.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sora::obs {

/// Accumulated wall-clock cost of one named stage.
struct StageStats {
  std::string stage;
  std::uint64_t calls = 0;
  double total_us = 0.0;
  double max_us = 0.0;

  double mean_us() const {
    return calls ? total_us / static_cast<double>(calls) : 0.0;
  }
};

class OverheadProfiler {
 public:
  using clock = std::chrono::steady_clock;

  /// The process-global profiler used by the SORA_PROFILE_STAGE macro.
  static OverheadProfiler& global();

  /// RAII stage timer; records into the profiler on destruction.
  class Scope {
   public:
    Scope(OverheadProfiler& profiler, const char* stage)
        : profiler_(&profiler), stage_(stage), start_(clock::now()) {}
    ~Scope() {
      const double us =
          std::chrono::duration<double, std::micro>(clock::now() - start_)
              .count();
      profiler_->record(stage_, us);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OverheadProfiler* profiler_;
    const char* stage_;
    clock::time_point start_;
  };

  void record(const char* stage, double us);

  /// Per-stage stats, sorted by stage name (deterministic output order).
  std::vector<StageStats> stats() const;
  /// Stats relative to an earlier snapshot (per-region attribution).
  std::vector<StageStats> stats_since(const std::vector<StageStats>& baseline)
      const;
  /// Sum of total_us across stages in `stats` whose name starts with
  /// `prefix` ("" = all).
  static double total_us(const std::vector<StageStats>& stats,
                         const std::string& prefix = "");

  void reset();

  /// Render a fixed-width per-stage table (benches, debug output).
  static void print(const std::vector<StageStats>& stats, std::ostream& os);

 private:
  mutable std::mutex mu_;
  // Transparent comparator: record() looks stages up by string_view and
  // builds the key string only the first time a stage is seen.
  std::map<std::string, StageStats, std::less<>> stages_;
};

}  // namespace sora::obs

/// Time the enclosing scope as `stage` on the global profiler.
#define SORA_PROFILE_STAGE(stage)                                \
  ::sora::obs::OverheadProfiler::Scope sora_profile_scope_##__LINE__( \
      ::sora::obs::OverheadProfiler::global(), stage)
