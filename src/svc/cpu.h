// Processor-sharing CPU model with concurrency overhead.
//
// Each service instance owns a CpuScheduler configured with a CPU limit
// (`cores`, fractional allowed — Kubernetes CPU quotas) and an overhead
// coefficient beta. Jobs submitted with a CPU demand (microseconds of work)
// share the cores: with n active jobs each progresses at rate
//
//     r(n) = min(1, cores/n) / (1 + beta * ln(1 + max(0, n - cores)/cores))
//
// The divisor models multithreading overhead (context switches, cache and
// scheduler contention) that grows once concurrency exceeds the core count;
// the logarithm saturates the penalty, matching the moderate (tens of
// percent, not multiples) capacity loss real servers show at very high
// oversubscription.
// This is the mechanism behind the paper's Figure 3: too few concurrent
// jobs leave cores idle (left side of the goodput curve), too many inflate
// everyone's latency (right side).
//
// Implementation uses the classic virtual-time formulation of PS so each
// arrival/completion costs O(log n). Jobs sit in a flat binary min-heap of
// (finish tag, submission seq, token) keys. A job is only its key: the
// owner passes a token at submit and gets it back through the one
// completion handler fixed at construction, so a submit touches the heap
// and nothing else, and allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"

namespace sora {

class CpuScheduler {
 public:
  /// Opaque job identity chosen by the owner (ServiceInstance packs a
  /// visit pointer and a phase bit into it).
  using Token = std::uint64_t;
  /// Runs once per completed job with that job's token.
  using Handler = void (*)(void* owner, Token token);

  CpuScheduler(Simulator& sim, double cores, double overhead_beta,
               Handler on_done, void* owner);

  /// Submit a job needing `demand` microseconds of CPU work; the handler
  /// runs with `token` at completion. Demands <= 0 complete immediately
  /// (synchronously).
  void submit(SimTime demand, Token token);

  /// Change the CPU limit at runtime (vertical scaling). Takes effect
  /// immediately for all active jobs.
  void set_cores(double cores);

  double cores() const { return cores_; }
  double overhead_beta() const { return beta_; }
  int active_jobs() const { return static_cast<int>(heap_.size()); }

  // -- metrics ---------------------------------------------------------------

  /// Cumulative busy time in core-microseconds up to now. Observers
  /// snapshot this and divide deltas by (elapsed * cores) for utilization.
  double busy_integral() const;

  std::uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  /// Heap key of one active job. Among equal finish tags the earlier
  /// submission completes first (FIFO), and keys are unique because seq is
  /// never reused, so completion order depends only on the key set.
  struct JobKey {
    double tag;
    std::uint64_t seq;
    Token token;
  };
  static bool finishes_before(const JobKey& a, const JobKey& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.seq < b.seq;
  }

  /// Per-job progress rate with n active jobs. Memoized per n (invalidated
  /// by set_cores): advance() calls this on every event affecting the
  /// instance and the log1p dominates otherwise.
  double rate(int n) const;
  double rate_uncached(int n) const;

  /// Fold elapsed wall time into virtual time and the busy integral.
  void advance();
  /// Move the completion event to the earliest-finishing job (schedule a new
  /// one only when it already fired; cancel it when no job is left).
  void reschedule();
  void complete_front();
  /// Remove the front job and return its token.
  Token pop_front();

  Simulator& sim_;
  Handler on_done_;
  void* owner_;
  double cores_;
  double beta_;

  // Virtual time: every active job has received v_ service; a job with
  // finish tag f completes when v_ reaches f. heap_ keeps the job that
  // finishes first (lowest tag, then lowest seq) at its front.
  double v_ = 0.0;
  std::vector<JobKey> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime last_advance_ = 0;
  EventHandle completion_event_;

  // busy integral: core-microseconds actually consumed
  double busy_integral_ = 0.0;

  // rate(n) memo, indexed by n; grown lazily, cleared on set_cores.
  mutable std::vector<double> rate_cache_;

  std::uint64_t jobs_completed_ = 0;
};

}  // namespace sora
