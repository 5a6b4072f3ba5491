// Tests for the discrete-event simulation engine.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

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

// Cancelling most of a large queue removes each entry in place; the heap
// shrinks immediately and the survivors still fire in exact (time, FIFO)
// order.
TEST(Simulator, CancelInPlacePreservesOrder) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 512; ++i) {
    handles.push_back(
        sim.schedule_at(1000 - i, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel all but every 8th event, from all depths of the heap.
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

// In-place removal during execution: cancel from inside a callback, then
// keep scheduling; counters and order must stay consistent.
TEST(Simulator, CancelInsideCallbackWithChurn) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(sim.schedule_at(100 + i, [] { FAIL(); }));
  }
  sim.schedule_at(50, [&] {
    for (EventHandle& h : doomed) h.cancel();
    EXPECT_EQ(sim.events_pending(), 0u);
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

// One simulator driven through a seeded stream of schedule, cancel,
// reschedule and run operations. With `in_place` every move is
// Simulator::reschedule; otherwise it is cancel + schedule_at of an
// equivalent callback. All random draws happen before that branch, so both
// modes see the same operation stream.
struct ChurnResult {
  std::vector<int> fired;
  std::vector<std::size_t> pending;  // events_pending() after each operation
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rescheduled = 0;
  std::uint64_t moves = 0;    // moves of a pending event
  std::uint64_t refused = 0;  // moves of a handle with no pending event
};

ChurnResult run_churn(bool in_place) {
  Simulator sim;
  sim.set_digest_enabled(true);
  Rng rng(0x50a7ULL);
  ChurnResult r;
  std::vector<EventHandle> handles;
  std::vector<SimTime> when;  // each handle's latest scheduled time
  const auto make_cb = [&sim, &r](int id) {
    return [&sim, &r, id] {
      r.fired.push_back(id);
      // Some events schedule a follow-up, possibly at the same instant.
      if (id % 5 == 0) {
        sim.schedule_after(id % 3, [&r, id] { r.fired.push_back(-id); });
      }
    };
  };
  // Moves and cancels pick among the 64 newest handles, most still pending.
  const auto pick = [&rng, &handles] {
    const std::size_t n = handles.size();
    return n - 1 - rng.uniform_int(std::min<std::size_t>(n, 64));
  };
  // Times are multiples of 10 so same-time ties are common.
  const auto draw_time = [&rng](SimTime from, std::uint64_t steps) {
    return from + 10 * static_cast<SimTime>(rng.uniform_int(steps));
  };
  for (int op = 0; op < 12000; ++op) {
    const std::uint64_t kind = rng.uniform_int(100);
    if (kind < 35 || handles.empty()) {
      const int id = static_cast<int>(handles.size());
      const SimTime at = draw_time(sim.now(), 100);
      handles.push_back(sim.schedule_at(at, make_cb(id)));
      when.push_back(at);
    } else if (kind < 45) {
      handles[pick()].cancel();
    } else if (kind < 80) {
      const std::size_t k = pick();
      const SimTime now = sim.now();
      const SimTime base = std::max(when[k], now);
      SimTime at = base;  // mode 2: same time, behind its own tie group
      switch (rng.uniform_int(4)) {
        case 0:  // earlier (or unchanged when already due now)
          at = now + static_cast<SimTime>(
                         rng.uniform_int(static_cast<std::uint64_t>(base - now) + 1));
          break;
        case 1:  // later
          at = base + 1 + static_cast<SimTime>(rng.uniform_int(500));
          break;
        case 3:  // onto another event's time
          at = std::max(when[pick()], now);
          break;
        default:
          break;
      }
      const bool was_pending = handles[k].pending();
      if (in_place) {
        EXPECT_EQ(sim.reschedule(handles[k], at), was_pending);
      } else if (was_pending) {
        handles[k].cancel();
        handles[k] = sim.schedule_at(at, make_cb(static_cast<int>(k)));
      }
      if (was_pending) {
        when[k] = at;
        ++r.moves;
      } else {
        ++r.refused;
      }
    } else if (kind < 90) {
      sim.step();
    } else {
      sim.run_until(draw_time(sim.now(), 4));
    }
    r.pending.push_back(sim.events_pending());
  }
  sim.run_all();
  r.digest = sim.digest();
  r.executed = sim.events_executed();
  r.cancelled = sim.events_cancelled();
  r.rescheduled = sim.events_rescheduled();
  return r;
}

// reschedule() must be indistinguishable from cancel + schedule_at: same
// fire order, same queue depth after every operation, same (time, seq)
// digest and executed count.
TEST(Simulator, RescheduleMatchesCancelPlusSchedule) {
  const ChurnResult moved = run_churn(true);
  const ChurnResult redone = run_churn(false);
  EXPECT_GT(moved.moves, 2000u);
  EXPECT_GT(moved.refused, 500u);
  EXPECT_GT(moved.fired.size(), 3000u);
  EXPECT_EQ(moved.fired, redone.fired);
  EXPECT_EQ(moved.pending, redone.pending);
  EXPECT_EQ(moved.digest, redone.digest);
  EXPECT_EQ(moved.executed, redone.executed);
  EXPECT_EQ(moved.rescheduled, moved.moves);
  EXPECT_EQ(redone.rescheduled, 0u);
  EXPECT_EQ(redone.cancelled, moved.cancelled + moved.moves);
}

// reschedule() returns false and consumes nothing (no event, no sequence
// number) for a default, fired, cancelled or periodic handle, and for a
// handle used inside its own callback. The same run without those calls
// must digest equal.
TEST(Simulator, RescheduleRefusesHandlesWithoutAPendingEvent) {
  const auto scenario = [](bool probe) {
    Simulator sim;
    sim.set_digest_enabled(true);
    std::vector<int> fired;
    const auto refuse = [&sim, probe](const EventHandle& h, SimTime at) {
      if (probe) {
        EXPECT_FALSE(sim.reschedule(h, at));
      }
    };
    refuse(EventHandle{}, 5);
    EventHandle spent = sim.schedule_at(1, [&] { fired.push_back(1); });
    sim.run_until(2);
    refuse(spent, 5);
    EventHandle dropped = sim.schedule_at(10, [&] { fired.push_back(2); });
    dropped.cancel();
    refuse(dropped, 20);
    EventHandle periodic =
        sim.schedule_periodic(10, [&] { fired.push_back(3); });
    refuse(periodic, 3);
    EventHandle self;
    self = sim.schedule_at(7, [&] {
      fired.push_back(4);
      refuse(self, 8);
    });
    sim.run_until(25);
    EXPECT_TRUE(periodic.pending());
    periodic.cancel();
    sim.schedule_at(30, [&] { fired.push_back(5); });
    sim.schedule_at(30, [&] { fired.push_back(6); });
    sim.run_all();
    EXPECT_EQ(sim.events_rescheduled(), 0u);
    return std::make_pair(fired, sim.digest());
  };
  const auto probed = scenario(true);
  // Periodic ticks at 12 and 22 are undisturbed by the refused move.
  EXPECT_EQ(probed.first, (std::vector<int>{1, 4, 3, 3, 5, 6}));
  EXPECT_EQ(probed, scenario(false));
}

// One simulator driven through a seeded mix of schedule_at, constant-delay
// schedule_in_order (network hops, some chained from their own callbacks),
// out-of-order schedule_in_order (the fallback to the posted heap),
// reschedule, cancel and periodic chains. With `ring` false every
// schedule_in_order call is a schedule_at instead. All random draws happen
// before that branch, so both modes see the same operation stream.
struct RingMixResult {
  std::vector<std::pair<SimTime, int>> fired;  // (now, id) per callback
  // After every operation: events_pending(), events_executed(), digest().
  std::vector<std::size_t> pending;
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> digests;
  std::size_t max_ring = 0;  // most events_pending() - heap_entries() seen
};

RingMixResult run_ring_mix(bool ring) {
  constexpr SimTime kHop = 500;
  Simulator sim;
  sim.set_digest_enabled(true);
  Rng rng(0x41a9ULL);
  RingMixResult r;
  std::vector<EventHandle> handles;
  std::vector<EventHandle> chains;
  const auto in_order = [&sim, ring](SimTime at, Simulator::Callback cb) {
    if (ring) {
      sim.schedule_in_order(at, std::move(cb));
    } else {
      sim.schedule_at(at, std::move(cb));
    }
  };
  // A hop's callback forwards one more hop for a third of the ids, as a
  // request hop's arrival leads to a response hop.
  std::function<void(int)> hop = [&](int id) {
    in_order(sim.now() + kHop, [&, id] {
      r.fired.emplace_back(sim.now(), id);
      if (id % 3 == 0) hop(id + 1);
    });
  };
  const auto pick = [&rng](std::size_t n) {
    return n - 1 - rng.uniform_int(std::min<std::size_t>(n, 32));
  };
  // now() plus `unit` times a draw below `steps`.
  const auto draw_time = [&sim, &rng](std::uint64_t steps, SimTime unit) {
    return sim.now() + unit * static_cast<SimTime>(rng.uniform_int(steps));
  };
  int next_id = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t kind = rng.uniform_int(100);
    const int id = next_id++;
    if (kind < 20 || handles.empty()) {
      handles.push_back(sim.schedule_at(draw_time(120, 10), [&, id] {
        r.fired.emplace_back(sim.now(), id);
      }));
    } else if (kind < 45) {
      hop(id * 3);
    } else if (kind < 52) {
      // Earlier than the hops already queued whenever any are: fallback.
      in_order(draw_time(kHop, 1),
               [&, id] { r.fired.emplace_back(sim.now(), id); });
    } else if (kind < 60) {
      const std::size_t k = pick(handles.size());
      sim.reschedule(handles[k], draw_time(2 * kHop, 1));
    } else if (kind < 65) {
      handles[pick(handles.size())].cancel();
    } else if (kind < 67) {
      const SimTime period = 50 * static_cast<SimTime>(1 + rng.uniform_int(10));
      chains.push_back(sim.schedule_periodic(
          period, [&, id] { r.fired.emplace_back(sim.now(), id); }));
      if (chains.size() > 4) chains[rng.uniform_int(chains.size())].cancel();
    } else if (kind < 95) {
      sim.step();
    } else {
      sim.run_until(draw_time(30, 10));
    }
    r.pending.push_back(sim.events_pending());
    r.executed.push_back(sim.events_executed());
    r.digests.push_back(sim.digest());
    r.max_ring =
        std::max(r.max_ring, sim.events_pending() - sim.heap_entries());
  }
  for (EventHandle& c : chains) c.cancel();
  while (sim.step()) {
    r.pending.push_back(sim.events_pending());
    r.executed.push_back(sim.events_executed());
    r.digests.push_back(sim.digest());
  }
  return r;
}

// The in-order ring changes where an event waits, never when it fires: the
// merged heap + ring run must execute the same (time, seq) stream as the
// heap alone, with the same queue depth after every operation.
TEST(Simulator, InOrderRingMatchesHeapOnlySchedule) {
  const RingMixResult ringed = run_ring_mix(true);
  const RingMixResult heaped = run_ring_mix(false);
  EXPECT_GT(ringed.fired.size(), 10000u);
  EXPECT_GT(ringed.max_ring, 20u);  // the ring was really used
  EXPECT_EQ(heaped.max_ring, 0u);
  EXPECT_EQ(ringed.fired, heaped.fired);
  EXPECT_EQ(ringed.pending, heaped.pending);
  EXPECT_EQ(ringed.executed, heaped.executed);
  EXPECT_EQ(ringed.digests, heaped.digests);
  EXPECT_EQ(ringed.pending.back(), 0u);
}

// Same-time ties between ring and heap entries follow scheduling order, and
// an out-of-order call still fires at its own time.
TEST(Simulator, InOrderRingTiesAndFallback) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_in_order(10, [&] { fired.push_back(1); });
  sim.schedule_at(10, [&] { fired.push_back(2); });
  sim.schedule_in_order(10, [&] { fired.push_back(3); });
  sim.schedule_in_order(5, [&] { fired.push_back(4); });  // falls back
  sim.schedule_at(7, [&] { fired.push_back(5); });
  EXPECT_EQ(sim.events_pending(), 5u);
  EXPECT_EQ(sim.heap_entries(), 3u);
  sim.run_until(9);
  EXPECT_EQ(fired, (std::vector<int>{4, 5}));
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<int>{4, 5, 1, 2, 3}));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);
}

// One simulator driven through a seeded mix of all three event sources:
// schedule_at with a kept handle (the indexed heap), post_at (the posted
// heap), constant-delay schedule_in_order hops, some chained from their own
// callbacks (the ring), out-of-order schedule_in_order calls (the fallback
// to the posted heap), reschedules, cancels, periodic chains (posted ticks)
// and bursts of exact ties at one time that interleave the three sources.
// With `split` false every post_at and schedule_in_order call is a
// schedule_at instead: the heap-only reference. All random draws happen
// before that branch, so both modes see the same operation stream.
struct SourceMixResult {
  std::vector<std::pair<SimTime, int>> fired;  // (now, id) per callback
  // After every operation: events_pending(), events_executed(), digest().
  std::vector<std::size_t> pending;
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> digests;
  std::size_t max_posted = 0;  // most heap_entries() - indexed_entries()
  std::size_t max_ring = 0;    // most events_pending() - heap_entries()
  std::size_t run_alls = 0;
  // Split mode: operations after which the indexed heap held anything but
  // the pending schedule_at events whose handles the mix kept.
  std::size_t indexed_mismatches = 0;
};

SourceMixResult run_source_mix(bool split) {
  constexpr SimTime kHop = 500;
  Simulator sim;
  sim.set_digest_enabled(true);
  Rng rng(0x9057ULL);
  SourceMixResult r;
  std::vector<EventHandle> handles;  // only pending ones, pruned per op
  std::vector<EventHandle> chains;
  const auto record = [&sim, &r](int id) {
    return [&sim, &r, id] { r.fired.emplace_back(sim.now(), id); };
  };
  const auto post = [&sim, split](SimTime at, Simulator::Callback cb) {
    if (split) {
      sim.post_at(at, std::move(cb));
    } else {
      sim.schedule_at(at, std::move(cb));
    }
  };
  const auto in_order = [&sim, split](SimTime at, Simulator::Callback cb) {
    if (split) {
      sim.schedule_in_order(at, std::move(cb));
    } else {
      sim.schedule_at(at, std::move(cb));
    }
  };
  std::function<void(int)> hop = [&](int id) {
    in_order(sim.now() + kHop, [&, id] {
      r.fired.emplace_back(sim.now(), id);
      if (id % 3 == 0) hop(id + 1);
    });
  };
  const auto pick = [&rng](std::size_t n) {
    return n - 1 - rng.uniform_int(std::min<std::size_t>(n, 32));
  };
  const auto draw_time = [&sim, &rng](std::uint64_t steps, SimTime unit) {
    return sim.now() + unit * static_cast<SimTime>(rng.uniform_int(steps));
  };
  const auto snapshot = [&] {
    r.pending.push_back(sim.events_pending());
    r.executed.push_back(sim.events_executed());
    r.digests.push_back(sim.digest());
  };
  int next_id = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t kind = rng.uniform_int(100);
    const int id = next_id++;
    if (kind < 15 || handles.empty()) {
      handles.push_back(sim.schedule_at(draw_time(120, 10), record(id)));
    } else if (kind < 30) {
      post(draw_time(120, 10), record(id));
    } else if (kind < 48) {
      hop(id * 3);
    } else if (kind < 53) {
      // Earlier than the hops already queued whenever any are: fallback.
      in_order(draw_time(kHop, 1), record(id));
    } else if (kind < 57) {
      // Exact ties at the latest hop time, no earlier than any ring entry,
      // with the sources interleaved in a random order.
      const SimTime at = sim.now() + kHop;
      for (int j = 0; j < 6; ++j) {
        const int tie_id = 100000000 + 8 * id + j;
        switch (rng.uniform_int(3)) {
          case 0:
            handles.push_back(sim.schedule_at(at, record(tie_id)));
            break;
          case 1:
            post(at, record(tie_id));
            break;
          default:
            in_order(at, record(tie_id));
            break;
        }
      }
    } else if (kind < 63) {
      sim.reschedule(handles[pick(handles.size())], draw_time(2 * kHop, 1));
    } else if (kind < 67) {
      handles[pick(handles.size())].cancel();
    } else if (kind < 69) {
      const SimTime period = 50 * static_cast<SimTime>(1 + rng.uniform_int(10));
      chains.push_back(sim.schedule_periodic(period, record(id)));
      if (chains.size() > 4) chains[rng.uniform_int(chains.size())].cancel();
    } else if (kind < 70 && rng.uniform_int(4) == 0) {
      // Drain everything: periodic chains would never let run_all return.
      for (EventHandle& c : chains) c.cancel();
      chains.clear();
      sim.run_all();
      ++r.run_alls;
    } else if (kind < 95) {
      sim.step();
    } else {
      sim.run_until(draw_time(30, 10));
    }
    std::erase_if(handles, [](const EventHandle& h) { return !h.pending(); });
    snapshot();
    if (split && sim.indexed_entries() != handles.size()) {
      ++r.indexed_mismatches;
    }
    r.max_posted = std::max(r.max_posted,
                            sim.heap_entries() - sim.indexed_entries());
    r.max_ring =
        std::max(r.max_ring, sim.events_pending() - sim.heap_entries());
  }
  for (EventHandle& c : chains) c.cancel();
  while (sim.step()) snapshot();
  return r;
}

// Splitting events over the indexed heap, the posted heap and the ring
// changes where each one waits, never when it fires: the three-way merge
// must execute the heap-only reference's (time, seq) stream, with the same
// queue depth after every operation, ties at one time included. The
// indexed heap holds exactly the events that have a live handle.
TEST(Simulator, PostedEventsMatchHeapOnlySchedule) {
  const SourceMixResult split = run_source_mix(true);
  const SourceMixResult heaped = run_source_mix(false);
  EXPECT_GT(split.fired.size(), 10000u);
  EXPECT_GT(split.max_posted, 40u);  // the posted heap was really used
  EXPECT_GT(split.max_ring, 40u);    // and so was the ring
  EXPECT_GT(split.run_alls, 20u);
  EXPECT_EQ(heaped.max_ring, 0u);
  EXPECT_EQ(split.indexed_mismatches, 0u);
  EXPECT_EQ(split.fired, heaped.fired);
  EXPECT_EQ(split.pending, heaped.pending);
  EXPECT_EQ(split.executed, heaped.executed);
  EXPECT_EQ(split.digests, heaped.digests);
  EXPECT_EQ(split.pending.back(), 0u);
}

// post_at events fire in (time, seq) order with the other sources, and a
// pending posted event counts in events_pending() and heap_entries() but
// not in indexed_entries().
TEST(Simulator, PostedEventsTieWithHandledOnesBySchedulingOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.post_at(10, [&] { fired.push_back(1); });
  EventHandle h = sim.schedule_at(10, [&] { fired.push_back(2); });
  sim.post_after(10, [&] { fired.push_back(3); });
  sim.post_at(4, [&] { fired.push_back(4); });
  EXPECT_EQ(sim.events_pending(), 4u);
  EXPECT_EQ(sim.heap_entries(), 4u);
  EXPECT_EQ(sim.indexed_entries(), 1u);
  EXPECT_TRUE(sim.reschedule(h, 10));  // to the back of the tie group
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<int>{4, 1, 3, 2}));
  EXPECT_EQ(sim.events_executed(), 4u);
}

}  // namespace
}  // namespace sora
