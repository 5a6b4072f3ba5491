// Tests for the processor-sharing CPU scheduler with concurrency overhead.
#include "svc/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sora {
namespace {

// The scheduler's completion handler with a callback per job: each submit
// stores its callback and passes the callback's index as the job token.
class CallbackCpu {
 public:
  CallbackCpu(Simulator& sim, double cores, double beta)
      : cpu_(sim, cores, beta, &CallbackCpu::on_done, this) {}

  void submit(SimTime demand, std::function<void()> done) {
    jobs_.push_back(std::move(done));
    cpu_.submit(demand, jobs_.size() - 1);
  }
  void set_cores(double cores) { cpu_.set_cores(cores); }
  double busy_integral() const { return cpu_.busy_integral(); }
  std::uint64_t jobs_completed() const { return cpu_.jobs_completed(); }
  int active_jobs() const { return cpu_.active_jobs(); }

 private:
  static void on_done(void* self, CpuScheduler::Token token) {
    auto& jobs = static_cast<CallbackCpu*>(self)->jobs_;
    ASSERT_LT(token, jobs.size());
    ASSERT_TRUE(jobs[token]) << "token " << token << " completed twice";
    std::function<void()> done = std::move(jobs[token]);
    jobs[token] = nullptr;
    done();
  }

  std::vector<std::function<void()>> jobs_;
  CpuScheduler cpu_;
};

// Tokens come back through the one handler exactly as submitted, once
// each: synchronously for zero demand, in finish order otherwise, and tied
// jobs in submission order.
TEST(CpuScheduler, HandlerGetsEachTokenOnceInKeyOrder) {
  Simulator sim;
  std::vector<std::pair<SimTime, CpuScheduler::Token>> seen;
  struct Ctx {
    Simulator* sim;
    std::vector<std::pair<SimTime, CpuScheduler::Token>>* seen;
  } ctx{&sim, &seen};
  CpuScheduler cpu(
      sim, 1.0, 0.0,
      [](void* owner, CpuScheduler::Token token) {
        auto* c = static_cast<Ctx*>(owner);
        c->seen->emplace_back(c->sim->now(), token);
      },
      &ctx);
  const CpuScheduler::Token big = ~CpuScheduler::Token{0} - 1;
  cpu.submit(0, 7);
  ASSERT_EQ(seen.size(), 1u);
  cpu.submit(300, big);
  cpu.submit(100, 42);
  cpu.submit(100, 41);
  cpu.submit(100, 43);
  sim.run_all();
  // Three 100 us jobs and one 300 us job share one core: the three tie at
  // t=400 and complete in submission order; the long one ends at t=600.
  const std::vector<std::pair<SimTime, CpuScheduler::Token>> expected = {
      {0, 7}, {400, 42}, {400, 41}, {400, 43}, {600, big}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(cpu.jobs_completed(), 5u);
}

TEST(CpuScheduler, SingleJobRunsAtFullSpeed) {
  Simulator sim;
  CallbackCpu cpu(sim, 2.0, 0.5);
  SimTime done_at = -1;
  cpu.submit(1000, [&] { done_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(done_at, 1000);
  EXPECT_EQ(cpu.jobs_completed(), 1u);
}

TEST(CpuScheduler, ZeroDemandCompletesSynchronously) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  bool done = false;
  cpu.submit(0, [&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(CpuScheduler, TwoJobsOnTwoCoresNoInterference) {
  Simulator sim;
  CallbackCpu cpu(sim, 2.0, 0.5);
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(2000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1000);
  EXPECT_EQ(done[1], 2000);
}

TEST(CpuScheduler, TwoJobsShareOneCore) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);  // no overhead
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(done.size(), 2u);
  // Each runs at 0.5x: both finish at ~2000.
  EXPECT_NEAR(static_cast<double>(done[0]), 2000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2000.0, 2.0);
}

TEST(CpuScheduler, OverheadSlowsExcessConcurrency) {
  Simulator sim;
  const double beta = 1.0;
  CallbackCpu cpu(sim, 1.0, beta);
  std::vector<SimTime> done;
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  cpu.submit(1000, [&] { done.push_back(sim.now()); });
  sim.run_all();
  // rate per job = 0.5 / (1 + ln(2)) -> each finishes at 2000*(1+ln2).
  const double expected = 2000.0 * (1.0 + std::log(2.0));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[1]), expected, 5.0);
}

TEST(CpuScheduler, ShorterJobFinishesFirst) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  std::vector<int> order;
  cpu.submit(3000, [&] { order.push_back(1); });
  cpu.submit(1000, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(CpuScheduler, LateArrivalSharesRemaining) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  std::vector<SimTime> done;
  cpu.submit(2000, [&] { done.push_back(sim.now()); });
  sim.schedule_at(1000, [&] {
    cpu.submit(500, [&] { done.push_back(sim.now()); });
  });
  sim.run_all();
  // Job A: 1000 done at t=1000, then shares: remaining 1000 at 0.5x.
  // Job B: 500 at 0.5x -> done at t=2000. A done at t=2500.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0]), 2000.0, 3.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 2500.0, 3.0);
}

TEST(CpuScheduler, SetCoresSpeedsUpInFlight) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  SimTime done_at = -1;
  cpu.submit(2000, [&] { done_at = sim.now(); });
  cpu.submit(2000, [&] {});
  // At t=1000 each job received 500us of service (rate 0.5), leaving 1500
  // each; doubling cores runs both at full speed: done at t=2500 instead of
  // t=4000.
  sim.schedule_at(1000, [&] { cpu.set_cores(2.0); });
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(done_at), 2500.0, 3.0);
}

// Arrivals and a core change move the one live completion event in place:
// the queue holds exactly that event while jobs run, and nothing is ever
// cancelled.
TEST(CpuScheduler, ArrivalsAndCoreChangeMoveOneCompletionEvent) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  std::vector<SimTime> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    cpu.submit(1000 * (i + 1), [&done, &sim, i] { done[i] = sim.now(); });
    EXPECT_EQ(sim.events_pending(), 1u);
  }
  // Three jobs share one core at 1/3 each: by t=1500 each has 500us of
  // service. Two cores then run all three at 2/3: job 0's last 500us end at
  // t=2250. The other two run at full speed from there: job 1 (1000us left)
  // ends at t=3250 and job 2 (2000us left) at t=4250.
  sim.run_until(1500);
  cpu.set_cores(2.0);
  EXPECT_EQ(sim.events_pending(), 1u);
  while (sim.step()) {
    if (cpu.active_jobs() > 0) {
      EXPECT_EQ(sim.events_pending(), 1u);
    }
  }
  EXPECT_EQ(sim.events_cancelled(), 0u);
  EXPECT_EQ(sim.events_rescheduled(), 3u);  // two arrivals + set_cores
  EXPECT_NEAR(static_cast<double>(done[0]), 2250.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[1]), 3250.0, 2.0);
  EXPECT_NEAR(static_cast<double>(done[2]), 4250.0, 2.0);
}

TEST(CpuScheduler, BusyIntegralSingleJob) {
  Simulator sim;
  CallbackCpu cpu(sim, 4.0, 0.0);
  cpu.submit(1000, [] {});
  sim.run_all();
  // One job on 4 cores occupies 1 core for 1000us.
  EXPECT_NEAR(cpu.busy_integral(), 1000.0, 1.0);
}

TEST(CpuScheduler, BusyIntegralCapsAtCores) {
  Simulator sim;
  CallbackCpu cpu(sim, 2.0, 0.0);
  for (int i = 0; i < 8; ++i) cpu.submit(1000, [] {});
  sim.run_all();
  // 8000us of work on 2 cores: busy 2 cores x 4000us = 8000 core-us.
  EXPECT_NEAR(cpu.busy_integral(), 8000.0, 10.0);
}

TEST(CpuScheduler, CompletionCallbackCanResubmit) {
  Simulator sim;
  CallbackCpu cpu(sim, 1.0, 0.0);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 4) cpu.submit(100, next);
  };
  cpu.submit(100, next);
  sim.run_all();
  EXPECT_EQ(chain, 4);
  EXPECT_EQ(sim.now(), 400);
}

TEST(CpuScheduler, FractionalCores) {
  Simulator sim;
  CallbackCpu cpu(sim, 0.5, 0.0);
  SimTime done_at = -1;
  cpu.submit(1000, [&] { done_at = sim.now(); });
  sim.run_all();
  // Half a core: 1000us of work takes ~2000us wall (plus overhead of the
  // beta term: n=1 > cores=0.5 -> 1+beta*ln(2) with beta 0 -> none).
  EXPECT_NEAR(static_cast<double>(done_at), 2000.0, 3.0);
}

// Property: work conservation — total busy time equals total demand when
// concurrency never exceeds cores; wall time of the batch is close to
// total_demand / cores when always saturated.
class CpuWorkConservation : public ::testing::TestWithParam<int> {};

TEST_P(CpuWorkConservation, BatchTiming) {
  const int jobs = GetParam();
  Simulator sim;
  CallbackCpu cpu(sim, 2.0, 0.0);
  SimTime last = 0;
  for (int i = 0; i < jobs; ++i) {
    cpu.submit(1000, [&] { last = sim.now(); });
  }
  sim.run_all();
  const double total_work = 1000.0 * jobs;
  if (jobs >= 2) {
    EXPECT_NEAR(static_cast<double>(last), total_work / 2.0,
                total_work * 0.01 + 5.0);
    EXPECT_NEAR(cpu.busy_integral(), total_work, total_work * 0.01 + 5.0);
  }
  EXPECT_EQ(cpu.jobs_completed(), static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(cpu.active_jobs(), 0);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, CpuWorkConservation,
                         ::testing::Values(1, 2, 3, 5, 10, 50));

// Property: the overhead model is monotone — more concurrency never speeds
// up an individual job.
TEST(CpuScheduler, MonotoneSlowdownWithConcurrency) {
  SimTime prev_done = 0;
  for (int n : {1, 2, 4, 8, 16}) {
    Simulator sim;
    CallbackCpu cpu(sim, 2.0, 0.5);
    SimTime done = 0;
    for (int i = 0; i < n; ++i) {
      cpu.submit(1000, [&] { done = sim.now(); });
    }
    sim.run_all();
    EXPECT_GE(done, prev_done);
    prev_done = done;
  }
}


// Reference model: the processor-sharing scheduler with its jobs in a
// std::multimap keyed by finish tag (equal tags complete in submission
// order) and one completion event cancelled and re-placed on every change.
// Same rate formula, same virtual-time arithmetic, same kTagEps sweep.
class MultimapCpu {
 public:
  MultimapCpu(Simulator& sim, double cores, double beta)
      : sim_(sim), cores_(cores), beta_(beta) {}

  void submit(SimTime demand, std::function<void()> done) {
    advance();
    jobs_.emplace(v_ + static_cast<double>(demand), std::move(done));
    reschedule();
  }
  void set_cores(double cores) {
    advance();
    cores_ = cores;
    reschedule();
  }
  /// Jobs a completion swept up with a tag other than the previous job's.
  int eps_sweeps = 0;

 private:
  static constexpr double kTagEps = 1e-3;

  double rate(std::size_t n) const {
    const double nd = static_cast<double>(n);
    double r = std::min(1.0, cores_ / nd);
    if (nd > cores_) r /= 1.0 + beta_ * std::log1p((nd - cores_) / cores_);
    return r;
  }
  void advance() {
    const SimTime dt = sim_.now() - last_;
    if (dt <= 0) return;
    if (!jobs_.empty()) v_ += static_cast<double>(dt) * rate(jobs_.size());
    last_ = sim_.now();
  }
  void reschedule() {
    event_.cancel();
    if (jobs_.empty()) return;
    const double dt =
        std::max(jobs_.begin()->first - v_, 0.0) / rate(jobs_.size());
    event_ = sim_.schedule_at(
        sim_.now() + std::max<SimTime>(0, static_cast<SimTime>(std::ceil(dt))),
        [this] { complete_front(); });
  }
  void complete_front() {
    advance();
    std::vector<std::function<void()>> done;
    double last_tag = 0.0;
    while (!jobs_.empty() && jobs_.begin()->first <= v_ + kTagEps) {
      if (!done.empty() && jobs_.begin()->first != last_tag) ++eps_sweeps;
      last_tag = jobs_.begin()->first;
      done.push_back(std::move(jobs_.begin()->second));
      jobs_.erase(jobs_.begin());
    }
    if (done.empty() && !jobs_.empty()) {
      done.push_back(std::move(jobs_.begin()->second));
      jobs_.erase(jobs_.begin());
    }
    reschedule();
    for (auto& d : done) d();
  }

  Simulator& sim_;
  double cores_;
  double beta_;
  double v_ = 0.0;
  SimTime last_ = 0;
  std::multimap<double, std::function<void()>> jobs_;
  EventHandle event_;
};

// A seeded stream of submits (bursts at one instant and at consecutive
// microseconds, few distinct demands, so finish tags tie exactly and within
// kTagEps) and set_cores calls, with some completions submitting a follow-up
// job. Returns (completion time, job id) in completion order.
template <typename Cpu>
std::vector<std::pair<SimTime, int>> run_cpu_mix(int* eps_sweeps) {
  Simulator sim;
  Cpu cpu(sim, 0.5, 0.4);
  Rng rng(0xc9a1ULL);
  std::vector<std::pair<SimTime, int>> out;
  int next_id = 0;
  std::function<void(SimTime)> submit = [&](SimTime demand) {
    const int id = next_id++;
    cpu.submit(demand, [&, id] {
      out.emplace_back(sim.now(), id);
      if (id % 7 == 0) submit(100);
    });
  };
  static constexpr SimTime kDemands[] = {100, 100, 100, 200, 250, 1000};
  static constexpr double kCores[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  SimTime t = 0;
  for (int op = 0; op < 600; ++op) {
    t += static_cast<SimTime>(rng.uniform_int(4) == 0 ? rng.uniform_int(3)
                                                       : rng.uniform_int(400));
    if (rng.uniform_int(20) == 0) {
      const double cores = kCores[rng.uniform_int(5)];
      sim.schedule_at(t, [&cpu, cores] { cpu.set_cores(cores); });
      continue;
    }
    const int burst = 1 + static_cast<int>(rng.uniform_int(12));
    const SimTime demand = kDemands[rng.uniform_int(6)];
    for (int i = 0; i < burst; ++i) {
      // Half the bursts spread over consecutive microseconds: under heavy
      // sharing, v advances by far less than kTagEps per microsecond.
      const SimTime at = rng.uniform_int(2) == 0 ? t : t + i;
      sim.schedule_at(at, [&submit, demand] { submit(demand); });
    }
  }
  sim.run_all();
  if constexpr (std::is_same_v<Cpu, MultimapCpu>) *eps_sweeps = cpu.eps_sweeps;
  return out;
}

// The flat job heap completes jobs in exactly the multimap's order and at
// exactly its times, ties and kTagEps sweeps included; the tokens it hands
// back name exactly the jobs the model completes.
TEST(CpuScheduler, JobHeapMatchesMultimapModel) {
  int eps_sweeps = 0;
  const auto model = run_cpu_mix<MultimapCpu>(&eps_sweeps);
  const auto heap = run_cpu_mix<CallbackCpu>(nullptr);
  EXPECT_GT(model.size(), 3000u);
  EXPECT_GT(eps_sweeps, 0);
  std::size_t same_time = 0;  // completions sharing an instant
  for (std::size_t i = 1; i < model.size(); ++i) {
    if (model[i].first == model[i - 1].first) ++same_time;
  }
  EXPECT_GT(same_time, 100u);
  EXPECT_EQ(heap, model);
}

}  // namespace
}  // namespace sora
