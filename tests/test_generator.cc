// Tests for open-loop and closed-loop workload generators.
#include "workload/generator.h"

#include <gtest/gtest.h>

namespace sora {
namespace {

/// Immediate-response sink with counters.
class InstantTarget : public LoadTarget {
 public:
  explicit InstantTarget(Simulator& sim, SimTime response_time = 0)
      : sim_(sim), rt_(response_time) {}

  void inject(const RequestMeta& meta, Completion on_complete) override {
    ++count_;
    ++per_priority_[static_cast<int>(meta.priority)];
    if (rt_ == 0) {
      on_complete(0, true);
    } else {
      sim_.schedule_after(
          rt_, [rt = rt_, cb = std::move(on_complete)] { cb(rt, true); });
    }
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t per_priority(Priority p) const {
    return per_priority_[static_cast<int>(p)];
  }

 private:
  Simulator& sim_;
  SimTime rt_;
  std::uint64_t count_ = 0;
  std::uint64_t per_priority_[kNumPriorities] = {};
};

TEST(RequestMix, SingleClass) {
  RequestMix mix(3);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(mix.sample(rng), 3);
}

TEST(RequestMix, WeightedSampling) {
  RequestMix mix{{0, 3.0}, {1, 1.0}};
  Rng rng(2);
  int c0 = 0, c1 = 0;
  for (int i = 0; i < 40000; ++i) {
    (mix.sample(rng) == 0 ? c0 : c1)++;
  }
  EXPECT_NEAR(static_cast<double>(c0) / (c0 + c1), 0.75, 0.02);
}

TEST(OpenLoop, GeneratesApproximateRate) {
  Simulator sim;
  InstantTarget target(sim);
  // Constant-rate trace: base == peak == 500 rps for 20 s -> ~10000 reqs.
  WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(20), 500.0, 500.0);
  OpenLoopGenerator gen(sim, target, trace, 42);
  gen.start();
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(target.count()), 10000.0, 300.0);
  EXPECT_EQ(gen.injected(), target.count());
}

TEST(OpenLoop, FollowsTraceShape) {
  Simulator sim;
  InstantTarget target(sim);
  WorkloadTrace trace(TraceShape::kDualPhase, sec(40), 100.0, 1000.0);
  OpenLoopGenerator gen(sim, target, trace, 7);
  std::uint64_t first_half = 0;
  sim.schedule_at(sec(20), [&] { first_half = target.count(); });
  gen.start();
  sim.run_all();
  const std::uint64_t second_half = target.count() - first_half;
  // Dual phase: the second half carries much more load.
  EXPECT_GT(second_half, first_half * 2);
}

TEST(OpenLoop, StopsAtTraceEnd) {
  Simulator sim;
  InstantTarget target(sim);
  WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(5), 100.0, 100.0);
  OpenLoopGenerator gen(sim, target, trace, 3);
  gen.start();
  sim.run_until(sec(60));
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_NEAR(static_cast<double>(target.count()), 500.0, 80.0);
}

TEST(OpenLoop, StopHaltsInjection) {
  Simulator sim;
  InstantTarget target(sim);
  WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(100), 200.0, 200.0);
  OpenLoopGenerator gen(sim, target, trace, 3);
  gen.start();
  sim.schedule_at(sec(2), [&] { gen.stop(); });
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(target.count()), 400.0, 80.0);
}

TEST(OpenLoop, ObserverSeesCompletions) {
  Simulator sim;
  InstantTarget target(sim, msec(5));
  WorkloadTrace trace(TraceShape::kSlowlyVarying, sec(5), 100.0, 100.0);
  OpenLoopGenerator gen(sim, target, trace, 5);
  std::uint64_t observed = 0;
  gen.set_observer([&](SimTime, int, SimTime rt, bool ok) {
    EXPECT_EQ(rt, msec(5));
    EXPECT_TRUE(ok);
    ++observed;
  });
  gen.start();
  sim.run_all();
  EXPECT_EQ(observed, target.count());
}

TEST(ClosedLoop, ThroughputMatchesLittlesLaw) {
  Simulator sim;
  InstantTarget target(sim, msec(50));
  // 100 users, think 450ms, response 50ms -> ~200 req/s for 20 s.
  ClosedLoopGenerator gen(sim, target, 100, msec(450), 11);
  gen.start();
  sim.run_until(sec(20));
  gen.stop();
  const double rate = static_cast<double>(target.count()) / 20.0;
  EXPECT_NEAR(rate, 200.0, 20.0);
}

TEST(ClosedLoop, SetUsersGrows) {
  Simulator sim;
  InstantTarget target(sim, msec(10));
  ClosedLoopGenerator gen(sim, target, 10, msec(90), 12);
  gen.start();
  sim.run_until(sec(5));
  const std::uint64_t at_10_users = target.count();
  gen.set_users(100);
  sim.run_until(sec(10));
  const std::uint64_t delta = target.count() - at_10_users;
  EXPECT_GT(delta, at_10_users * 5);
}

TEST(ClosedLoop, SetUsersShrinksEventually) {
  Simulator sim;
  InstantTarget target(sim, msec(10));
  ClosedLoopGenerator gen(sim, target, 100, msec(90), 13);
  gen.start();
  sim.run_until(sec(5));
  gen.set_users(1);
  const std::uint64_t before = target.count();
  sim.run_until(sec(6));
  const std::uint64_t drain = target.count() - before;
  sim.run_until(sec(16));
  const std::uint64_t after = target.count() - before - drain;
  // Rate with 1 user ~ 10/s; over 10s ~ 100 requests.
  EXPECT_LT(after, 300u);
  EXPECT_GT(after, 20u);
}

TEST(ClosedLoop, FollowTraceTracksUserCounts) {
  Simulator sim;
  InstantTarget target(sim, msec(10));
  ClosedLoopGenerator gen(sim, target, 0, msec(90), 14);
  WorkloadTrace trace(TraceShape::kDualPhase, sec(40), 50.0, 500.0);
  gen.follow_trace(trace);
  gen.start();
  std::uint64_t first_half = 0;
  sim.schedule_at(sec(20), [&] { first_half = target.count(); });
  sim.run_until(sec(40));
  const std::uint64_t second_half = target.count() - first_half;
  EXPECT_GT(second_half, first_half * 2);
  // After the trace ends users retire.
  sim.run_until(sec(60));
  const std::uint64_t tail = target.count();
  sim.run_until(sec(70));
  EXPECT_LE(target.count() - tail, 10u);
}

TEST(ClosedLoop, DeterministicWithSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    InstantTarget target(sim, msec(20));
    ClosedLoopGenerator gen(sim, target, 50, msec(100), seed);
    gen.start();
    sim.run_until(sec(10));
    return target.count();
  };
  EXPECT_EQ(run(5), run(5));
}

}  // namespace
}  // namespace sora
