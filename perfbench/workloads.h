// The benchmark's three workloads, built through the simulator's public
// harness API, plus the span log the traced run records into.
//
//   cart_firm   — fig10's FIRM-only leg (Sock Shop cart, closed loop).
//   cart_sora   — the same scenario with FIRM+Sora (fig10's headline leg).
//   planet_sora — planet_scale's sora leg: 1000 synthesized services, a
//                 replayed 4-tenant flash-crowd CSV, front-door AIMD
//                 admission, Sora+FIRM on the shared backends.
//
// The workload seed becomes the Experiment seed (arrivals, think times,
// service demands); the topology and the trace CSV keep their fixed seeds,
// as in the benches they come from.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "harness/experiment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start` on the host clock.
double seconds_since(Clock::time_point start);

/// Spans recorded from the benchmark's own code: name, start, end and the
/// span that caused it. Kept in memory; written once at the end of a run.
class SpanLog {
 public:
  SpanLog();

  /// Open a span; returns its id. `parent` < 0 means a root span.
  int begin(std::string name, int parent = -1);
  void end(int id);

  /// Chrome trace_event JSON (load into ui.perfetto.dev); the parent link
  /// is kept in each event's args.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times its scope; also records it as a span when given a log.
class TimedScope {
 public:
  TimedScope(SpanLog* log, const char* name, int parent);
  ~TimedScope();
  TimedScope(const TimedScope&) = delete;
  TimedScope& operator=(const TimedScope&) = delete;

  /// Host seconds since the scope opened.
  double elapsed_s() const { return seconds_since(start_); }

 private:
  SpanLog* log_;
  int span_ = -1;
  Clock::time_point start_;
};

/// Host time of each set-up step, milliseconds.
struct SetupTimes {
  double topo_ms = 0.0;    ///< topology synthesis (planet_sora only)
  double replay_ms = 0.0;  ///< trace-CSV synthesis + parsing (planet_sora)
  double build_ms = 0.0;   ///< Experiment construction, wiring, start_all
  double total_s = 0.0;    ///< the whole set-up, seconds
};

/// A workload built and started (start_all done), ready to run.
struct Workload {
  std::unique_ptr<sora::Experiment> exp;
  /// The Sora framework (null on cart_firm).
  sora::SoraFramework* sora = nullptr;
  /// What the workload's deadline propagation uses (defaults on cart_firm).
  sora::DeadlineOptions deadline;
  sora::SimTime deadline_window = 0;
  sora::SimTime sla = 0;
  /// Deadline-probe target while nothing is localized: the first managed
  /// service (cart, or the first shared backend).
  sora::ServiceId fallback_target;
  SetupTimes setup;
};

bool is_workload(const std::string& name);

/// The seed whose outputs are stored as the reference fingerprint (the
/// seed fig10 and planet_scale run with).
constexpr std::uint64_t kReferenceSeed = 42;

/// Build `name` with Experiment seed `seed`. `sim_duration` 0 keeps the
/// workload's own length; tests pass a shorter one. Set-up steps are
/// recorded as spans under `parent` when `spans` is non-null.
Workload build_workload(const std::string& name, std::uint64_t seed,
                        sora::SimTime sim_duration, SpanLog* spans,
                        int parent);

/// One `field value` pair of a run's output fingerprint.
struct Field {
  std::string name;
  std::string value;
};

/// The run's simulated outputs: the summary at 17 digits, the event count,
/// the warehouse digest and a hash of the decision log. Two runs of the same
/// program on the same inputs produce equal fingerprints.
std::vector<Field> fingerprint(sora::Experiment& exp);

}  // namespace perfbench
