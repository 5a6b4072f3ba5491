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
// The stages form a closed enum, and a StageTable is a fixed array of
// accumulators indexed by it: no lock, no string keys, no allocation. Each
// Simulator owns one table and installs it as its thread's current table
// while it runs events, so every stage a simulation's events execute is
// attributed to that simulation alone, whatever else runs concurrently on
// other threads (harness::SweepRunner). A stage timed while no simulator is
// running (direct calls in unit tests, micro-benchmarks, standalone probes)
// lands in a per-thread fallback table. The profiler depends on nothing else
// and is compiled into sora_common, so every layer, the trace warehouse
// included, can time its stages.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sora::obs {

/// Every profiled stage, declared in name order so that stats() comes out
/// sorted by name.
enum class Stage : std::uint8_t {
  kScgAggregate,
  kScgEstimate,
  kScgKneedle,
  kScgPolyfit,
  kSoraControlRound,
  kSoraDeadlineProp,
  kSoraLocalization,
  kTraceCriticalPath,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kTraceCriticalPath) + 1;

/// The stage's report name ("trace.critical_path", ...).
const char* stage_name(Stage stage);

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

/// Per-stage accumulators for one simulation (or one thread's fallback).
class StageTable {
 public:
  using clock = std::chrono::steady_clock;

  void record(Stage stage, double us) {
    Cell& c = cells_[static_cast<std::size_t>(stage)];
    ++c.calls;
    c.total_us += us;
    if (us > c.max_us) c.max_us = us;
  }

  /// Stats of every stage called at least once, sorted by stage name.
  std::vector<StageStats> stats() const;

  /// The table SORA_PROFILE_STAGE records into on the calling thread: the
  /// installed one, or the thread's fallback table when none is.
  static StageTable& current();

  /// RAII: makes `table` the calling thread's current table and restores
  /// the previous one on destruction.
  class Install {
   public:
    explicit Install(StageTable& table);
    ~Install();
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    StageTable* previous_;
  };

  /// RAII stage timer; on destruction it records into the table that was
  /// current when it was constructed.
  class Scope {
   public:
    explicit Scope(Stage stage)
        : table_(&current()), stage_(stage), start_(clock::now()) {}
    ~Scope() {
      table_->record(stage_, std::chrono::duration<double, std::micro>(
                                 clock::now() - start_)
                                 .count());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StageTable* table_;
    Stage stage_;
    clock::time_point start_;
  };

  /// Render a fixed-width per-stage table (benches, debug output).
  static void print(const std::vector<StageStats>& stats, std::ostream& os);

 private:
  struct Cell {
    std::uint64_t calls = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::array<Cell, kStageCount> cells_{};
};

}  // namespace sora::obs

/// Time the enclosing scope as `stage` (an obs::Stage) on the current table.
#define SORA_PROFILE_STAGE(stage) \
  ::sora::obs::StageTable::Scope sora_profile_scope_##__LINE__(stage)
