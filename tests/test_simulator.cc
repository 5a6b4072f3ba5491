// Tests for the discrete-event simulation engine.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sora {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// The one tie-break rule: same-time events fire in scheduling order. An
// event scheduled for the current instant from inside a callback queues
// behind every same-time event that was already scheduled.
TEST(Simulator, SameTimeEventScheduledDuringExecutionQueuesLast) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(10, [&] {
    order.push_back('a');
    sim.schedule_after(0, [&] { order.push_back('c'); });
  });
  sim.schedule_at(10, [&] { order.push_back('b'); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

// Periodic ticks follow the same rule: each tick is scheduled when the
// previous one fires, so it ties with one-shots by when each was scheduled.
TEST(Simulator, PeriodicTicksTieWithOneShotsBySchedulingOrder) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_at(20, [&] { order.push_back("early@20"); });
  sim.schedule_periodic(10, [&] {
    order.push_back("tick@" + std::to_string(sim.now()));
  });
  sim.schedule_at(10, [&] { order.push_back("late@10"); });
  sim.run_until(20);
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "late@10",
                                             "early@20", "tick@20"}));
}

// The event-stream digest fingerprints (time, seq) of every executed event:
// identical schedules digest equal, a shifted event does not.
TEST(Simulator, DigestFingerprintsTheSchedule) {
  const auto digest_of = [](SimTime second_at) {
    Simulator sim;
    sim.set_digest_enabled(true);
    sim.schedule_at(10, [] {});
    sim.schedule_at(second_at, [] {});
    sim.schedule_periodic(7, [] {});
    sim.run_until(50);
    return sim.digest();
  };
  EXPECT_EQ(digest_of(20), digest_of(20));
  EXPECT_NE(digest_of(20), digest_of(21));

  Simulator off;
  const std::uint64_t basis = off.digest();
  off.schedule_at(1, [] {});
  off.run_all();
  EXPECT_EQ(off.digest(), basis);  // disabled: nothing folded
}

TEST(Simulator, ScheduleAfter) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run_all();
  SimTime fired_at = -1;
  sim.schedule_after(50, [&] { fired_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, HandleNotPendingAfterFire) {
  Simulator sim;
  EventHandle h = sim.schedule_at(1, [] {});
  sim.run_all();
  EXPECT_FALSE(h.pending());
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(20, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(30, [&] { fired.push_back(sim.now()); });
  sim.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.run_until(25);
  EXPECT_EQ(sim.now(), 25);  // clock advances even with no events
  sim.run_until(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_after(5, [&] { order.push_back(2); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, ImmediateEventDuringExecution) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] {
    sim.schedule_after(0, [&] { ++count; });
  });
  sim.run_all();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_periodic(10, [&] { fired.push_back(sim.now()); });
  sim.run_until(35);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Simulator, PeriodicCancelStops) {
  Simulator sim;
  int count = 0;
  EventHandle h = sim.schedule_periodic(10, [&] { ++count; });
  sim.run_until(25);
  EXPECT_EQ(count, 2);
  h.cancel();
  sim.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, PeriodicCancelFromWithinCallback) {
  Simulator sim;
  int count = 0;
  EventHandle h;
  h = sim.schedule_periodic(10, [&] {
    if (++count == 3) h.cancel();
  });
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ManyEventsStress) {
  Simulator sim;
  std::uint64_t sum = 0;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at((i * 7919) % 100000, [&sum] { ++sum; });
  }
  sim.run_all();
  EXPECT_EQ(sum, 10000u);
}

TEST(Simulator, CancelledCounterTracksCancels) {
  Simulator sim;
  EventHandle a = sim.schedule_at(10, [] {});
  EventHandle b = sim.schedule_at(20, [] {});
  sim.schedule_at(30, [] {});
  EXPECT_EQ(sim.events_cancelled(), 0u);
  a.cancel();
  b.cancel();
  b.cancel();  // double-cancel must not count twice
  EXPECT_EQ(sim.events_cancelled(), 2u);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.events_cancelled(), 2u);
}

// A cancelled slot is recycled for the next scheduled event; the old
// handle's generation is stale and must neither report pending nor be able
// to cancel the slot's new occupant.
TEST(Simulator, StaleHandleCannotTouchReusedSlot) {
  Simulator sim;
  bool old_fired = false;
  bool new_fired = false;
  EventHandle old_h = sim.schedule_at(10, [&] { old_fired = true; });
  old_h.cancel();
  EventHandle new_h = sim.schedule_at(20, [&] { new_fired = true; });
  EXPECT_FALSE(old_h.pending());
  EXPECT_TRUE(new_h.pending());
  old_h.cancel();  // stale generation: must be a no-op on the new event
  EXPECT_TRUE(new_h.pending());
  sim.run_all();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  EXPECT_EQ(sim.events_cancelled(), 1u);
}

// A handle whose event already fired is equally stale across slot reuse.
TEST(Simulator, SpentHandleCannotCancelReusedSlot) {
  Simulator sim;
  EventHandle first = sim.schedule_at(1, [] {});
  sim.run_all();
  int fired = 0;
  sim.schedule_at(2, [&] { ++fired; });
  first.cancel();  // must not hit the recycled slot
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

// Cancel/reschedule churn forces slots through many generations; every
// surviving event must fire exactly once, in time order, and no stale
// handle may interfere.
TEST(Simulator, HandleGenerationStress) {
  Simulator sim;
  std::vector<SimTime> fired;
  std::vector<EventHandle> cancelled;
  // Interleave: schedule two, cancel one, repeat. Free-list reuse makes
  // consecutive schedules revisit the same slots with bumped generations.
  for (int i = 0; i < 1000; ++i) {
    EventHandle keep =
        sim.schedule_at(2 * i, [&fired, &sim] { fired.push_back(sim.now()); });
    EventHandle drop = sim.schedule_at(2 * i + 1, [] { FAIL(); });
    drop.cancel();
    cancelled.push_back(drop);
    (void)keep;
  }
  // Re-cancelling every stale handle must not disturb pending events.
  for (EventHandle& h : cancelled) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  EXPECT_EQ(sim.events_pending(), 1000u);
  sim.run_all();
  ASSERT_EQ(fired.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(fired[i], 2 * i);
  EXPECT_EQ(sim.events_executed(), 1000u);
  EXPECT_EQ(sim.events_cancelled(), 1000u);
}

// Cancelling most of a large queue triggers in-place heap compaction; the
// survivors must still fire in exact (time, FIFO) order.
TEST(Simulator, CompactionPreservesOrder) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 512; ++i) {
    handles.push_back(
        sim.schedule_at(1000 - i, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel all but every 8th event: well past the >50% stale threshold.
  std::uint64_t expected_cancelled = 0;
  for (int i = 0; i < 512; ++i) {
    if (i % 8 != 0) {
      handles[i].cancel();
      ++expected_cancelled;
    }
  }
  EXPECT_EQ(sim.events_cancelled(), expected_cancelled);
  EXPECT_EQ(sim.events_pending(), 512u - expected_cancelled);
  sim.run_all();
  ASSERT_EQ(fired.size(), 512u - expected_cancelled);
  // Times were 1000 - i, so survivors fire in descending index order.
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], 504 - static_cast<int>(k) * 8);
  }
  EXPECT_EQ(sim.events_pending(), 0u);
}

// Compaction during execution: cancel from inside a callback, then keep
// scheduling; counters and order must stay consistent.
TEST(Simulator, CancelInsideCallbackWithChurn) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(sim.schedule_at(100 + i, [] { FAIL(); }));
  }
  sim.schedule_at(50, [&] {
    for (EventHandle& h : doomed) h.cancel();
    order.push_back(1);
    sim.schedule_after(10, [&] { order.push_back(2); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_cancelled(), 200u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

// Periodic chains run through the same slab; cancelling one mid-flight and
// re-arming new periodics must not cross wires through recycled slots.
TEST(Simulator, PeriodicSlotReuseAcrossGenerations) {
  Simulator sim;
  int first_count = 0;
  EventHandle first = sim.schedule_periodic(10, [&] { ++first_count; });
  sim.run_until(35);
  EXPECT_EQ(first_count, 3);
  first.cancel();
  int second_count = 0;
  EventHandle second = sim.schedule_periodic(5, [&] { ++second_count; });
  first.cancel();  // stale: must not stop the new chain
  sim.run_until(60);
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  EXPECT_EQ(first_count, 3);
  EXPECT_EQ(second_count, 5);  // ticks at 40, 45, 50, 55, 60
}

// The stale-entry compactor fires only past the exact 50% boundary:
// heap >= kCompactMinHeap entries AND stale * 2 > heap size. At a 64-entry
// heap, 32 cancellations sit exactly at half — no compaction; the 33rd
// crosses the boundary and sweeps every stale entry in one pass.
TEST(Simulator, HeapCompactionAtExactHalfStaleBoundary) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(sim.schedule_at(1000 + i, [] {}));
  }
  ASSERT_EQ(sim.heap_entries(), 64u);  // == kCompactMinHeap
  for (int i = 0; i < 32; ++i) handles[static_cast<std::size_t>(i)].cancel();
  // 32 stale of 64 is exactly half, not "more than half": stale entries stay.
  EXPECT_EQ(sim.heap_entries(), 64u);
  EXPECT_EQ(sim.events_pending(), 32u);
  handles[32].cancel();
  // 33 of 64 crosses the boundary: only the 31 live entries survive.
  EXPECT_EQ(sim.heap_entries(), 31u);
  EXPECT_EQ(sim.events_pending(), 31u);
  EXPECT_EQ(sim.events_cancelled(), 33u);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 31u);
}

// Below kCompactMinHeap a stale majority never triggers compaction — the
// pass would cost more than popping the stale entries at run time.
TEST(Simulator, NoCompactionBelowMinHeapSize) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 63; ++i) {
    handles.push_back(sim.schedule_at(1000 + i, [] { FAIL(); }));
  }
  for (EventHandle& h : handles) h.cancel();
  EXPECT_EQ(sim.heap_entries(), 63u);  // all stale, all still queued
  EXPECT_EQ(sim.events_pending(), 0u);
  sim.run_all();
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

}  // namespace
}  // namespace sora
