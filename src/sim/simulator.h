// Discrete-event simulation engine.
//
// A Simulator owns a binary min-heap of timestamped events. Events scheduled
// for the same instant fire in scheduling order (FIFO), which together with
// seeded RNGs makes every run bit-for-bit reproducible.
//
// The engine is single-threaded by design: microsecond-scale event handlers
// dominate, and determinism is a hard requirement for the experiments.
// Parallelism lives one level up — many independent Simulators run
// concurrently on different threads (harness::SweepRunner) — but one
// Simulator is never shared across threads.
//
// Hot-path layout: event callbacks live in a slab of pooled records indexed
// by a free list, so steady-state scheduling performs no heap allocation
// (callback captures up to UniqueFunction::kInlineSize bytes included). The
// heap itself stores 24-byte (time, seq, slot) entries, and each record
// tracks the position of its entry. That makes both cancel and reschedule
// O(log n) in place: cancel erases the entry (and frees the record with its
// callback captures immediately), reschedule re-keys it and keeps the
// callback. The heap never holds a dead entry, so every pop is a live event.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/function.h"
#include "common/time.h"
#include "obs/profiler.h"

namespace sora {

namespace obs {
class MetricsRegistry;
}

class Simulator;

/// Handle to a scheduled event, usable to cancel or reschedule it before it
/// fires.
/// A handle is a (slot, generation) ticket into the owning simulator's event
/// slab; it is cheap to copy and must not outlive the Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

  /// Cancel the event; a no-op if already fired or cancelled.
  void cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  using Callback = UniqueFunction;

  /// Registers this simulator as the calling thread's log clock so SORA_LOG
  /// lines carry the current sim time (see common/log.h).
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  /// Returns a handle that can cancel the event.
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` after a relative delay (>= 0).
  EventHandle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedule `cb` every `period` starting at now()+period, until the
  /// returned handle is cancelled or the simulation ends. A periodic handle
  /// can be cancelled but not rescheduled.
  EventHandle schedule_periodic(SimTime period, Callback cb);

  /// Move the pending one-shot event behind `h` to absolute time `at`
  /// (must be >= now()), keeping its callback. The event takes a fresh
  /// sequence number, exactly as cancel + schedule_at would, so it fires
  /// after every event already scheduled for `at` and the executed stream
  /// (order, digest(), events_executed()) is the same as that pair's.
  /// Returns false and changes nothing when `h` is not pending (default,
  /// fired, cancelled, or its own event's callback is running) or is a
  /// periodic handle.
  bool reschedule(const EventHandle& h, SimTime at);

  // The three run entry points install stages() as the calling thread's
  // current stage table while events execute, so the control-path stages
  // those events time are attributed to this simulation alone.

  /// Run until the event queue is empty or `until` is reached. Events at
  /// exactly `until` are executed. Advances now() to `until` (or the last
  /// executed event time if the queue drains first and it is later).
  void run_until(SimTime until);

  /// Run until the event queue is completely empty.
  void run_all();

  /// Execute at most one event; returns false if the queue is empty.
  bool step();

  /// Wall-clock cost of the profiled stages this simulation's events ran.
  const obs::StageTable& stages() const { return stages_; }

  // --- Introspection ----------------------------------------------------

  /// Opt-in event-stream fingerprint: when enabled, every executed event
  /// folds its (time, seq) pair into an FNV-1a digest. Two runs that execute
  /// the same events in the same order at the same times digest equal — the
  /// causal profiler uses this to prove its control re-run is byte-identical
  /// to the primary. Off by default: the hot loop pays only an untaken
  /// branch. Enable before the first event executes for a meaningful value.
  void set_digest_enabled(bool enabled) { digest_enabled_ = enabled; }
  bool digest_enabled() const { return digest_enabled_; }
  std::uint64_t digest() const { return digest_; }

  std::uint64_t events_executed() const { return events_executed_; }
  /// Scheduled-and-not-yet-fired events.
  std::size_t events_pending() const { return heap_.size(); }
  /// Events cancelled before firing over the simulator's lifetime.
  std::uint64_t events_cancelled() const { return events_cancelled_; }
  /// Successful reschedule() calls over the simulator's lifetime.
  std::uint64_t events_rescheduled() const { return events_rescheduled_; }
  /// Heap entries; equal to events_pending(). Kept for perfbench's
  /// heap-size probe.
  std::size_t heap_entries() const { return heap_.size(); }

  /// Publish event-loop state (events executed/cancelled, queue depth, sim
  /// clock) into a metrics registry. Called by periodic samplers; the hot
  /// event loop itself stays untouched.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;

  /// Pooled per-event state. `gen` identifies the current occupancy of the
  /// slot: handles carry the generation they were issued under and become
  /// stale when it changes.
  struct EventRecord {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilSlot;
    /// Index of this event's entry in heap_; kNilSlot for free slots and
    /// periodic chain anchors, which own no entry.
    std::uint32_t heap_pos = kNilSlot;
  };

  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
  };

  /// Heap order: the earliest (time, seq) event is on top. Keys are unique
  /// (seq is never reused), so pop order depends only on the key set, not
  /// on the heap's shape.
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);
  bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < records_.size() && records_[slot].gen == gen;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  /// Write `e` at heap index `pos` and record that index in its event.
  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    records_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Hole technique: `pos` is a hole that `e` fills once the entries it
  /// passes have moved down (sift_up) or up (sift_down) into it.
  void sift_up(std::size_t pos, const HeapEntry& e);
  void sift_down(std::size_t pos, const HeapEntry& e);
  /// Put `e` at hole `pos`, sifting whichever way its key requires.
  void resift(std::size_t pos, const HeapEntry& e);
  /// Remove the entry at `pos`; the last entry fills the hole.
  void erase_at(std::size_t pos);
  /// Pop and execute the top entry (heap must be non-empty).
  void execute_top();

  void schedule_tick(SimTime period, std::uint32_t chain_slot,
                     std::uint32_t chain_gen);

  /// FNV-1a fold of one executed event's (time, seq) pair. Deliberately
  /// out of line: the digest branch in execute_top must stay a bare
  /// untaken test so the disabled-mode hot loop keeps its code layout.
  void fold_digest(std::uint64_t at, std::uint64_t seq);

  std::vector<HeapEntry> heap_;
  std::vector<EventRecord> records_;
  std::uint32_t free_head_ = kNilSlot;
  SimTime now_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t events_rescheduled_ = 0;
  bool digest_enabled_ = false;
  obs::StageTable stages_;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_live(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
}

}  // namespace sora
