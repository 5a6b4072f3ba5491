// Tests for the parallel experiment sweep runner.
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace sora {
namespace {

/// One self-contained simulation run, as every bench sweep performs it.
ExperimentSummary run_point(std::size_t index) {
  ExperimentConfig cfg;
  cfg.duration = sec(10);
  cfg.sla = msec(100);
  cfg.seed = 100 + index;
  Experiment exp(testutil::chain_app(0.4), cfg);
  exp.closed_loop(10 + static_cast<int>(index) * 5, msec(100));
  exp.run();
  return exp.summary();
}

bool same_sim_outputs(const ExperimentSummary& a, const ExperimentSummary& b) {
  return a.injected == b.injected && a.completed == b.completed &&
         a.shed == b.shed && a.mean_ms == b.mean_ms && a.p50_ms == b.p50_ms &&
         a.p95_ms == b.p95_ms && a.p99_ms == b.p99_ms &&
         a.goodput_rps == b.goodput_rps &&
         a.throughput_rps == b.throughput_rps &&
         a.good_fraction == b.good_fraction &&
         a.slo_episodes == b.slo_episodes;
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner(4);
  const auto out = runner.map(32, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, ItemOverloadPreservesItemOrder) {
  SweepRunner runner(4);
  const std::vector<int> items = {7, -3, 0, 42, 5};
  const auto out = runner.map(items, [](int v) { return v * 2; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i], items[i] * 2);
  }
}

TEST(SweepRunner, EachIndexRunsExactlyOnce) {
  SweepRunner runner(4);
  std::atomic<int> calls{0};
  const auto out = runner.map(100, [&](std::size_t i) {
    calls.fetch_add(1);
    return i;
  });
  EXPECT_EQ(calls.load(), 100);
  std::set<std::size_t> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), 100u);
}

// The core parity claim: a 4-thread sweep of real simulations produces
// bit-identical summaries to the serial sweep — determinism lives in the
// per-run seeds, not in scheduling.
TEST(SweepRunner, ParallelSimulationsMatchSerialBitForBit) {
  constexpr std::size_t kRuns = 6;
  SweepRunner serial(1);
  SweepRunner parallel(4);
  ASSERT_EQ(parallel.threads(), 4);
  const auto s = serial.map(kRuns, run_point);
  const auto p = parallel.map(kRuns, run_point);
  ASSERT_EQ(s.size(), kRuns);
  ASSERT_EQ(p.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(same_sim_outputs(s[i], p[i])) << "run " << i << " diverged";
  }
  // Distinct configs must produce distinct outputs (guards against the
  // parity check accidentally comparing constants).
  EXPECT_FALSE(same_sim_outputs(s[0], s[1]));
}

// Repeating the same parallel sweep must be deterministic run-to-run.
TEST(SweepRunner, ParallelSweepIsRepeatable) {
  SweepRunner runner(4);
  const auto first = runner.map(4, run_point);
  const auto second = runner.map(4, run_point);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_sim_outputs(first[i], second[i]));
  }
}

TEST(SweepRunner, PropagatesFirstException) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.map(16,
                          [](std::size_t i) -> int {
                            if (i == 3) throw std::runtime_error("boom");
                            return static_cast<int>(i);
                          }),
               std::runtime_error);
}

TEST(SweepRunner, EmptyMapReturnsEmpty) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(SweepRunner, SerialFallbackForSingleWorker) {
  SweepRunner runner(1);
  EXPECT_EQ(runner.threads(), 1);
  std::thread::id main_id = std::this_thread::get_id();
  runner.map(4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    return i;
  });
}

// SORA_SWEEP_THREADS must be a whole positive integer; anything else falls
// back to hardware concurrency. Calls default_worker_count() only, so no
// worker thread starts.
TEST(SweepRunner, DefaultWorkerCountParsesEnv) {
  const char* prior = std::getenv("SORA_SWEEP_THREADS");
  const std::optional<std::string> saved =
      prior != nullptr ? std::optional<std::string>(prior) : std::nullopt;

  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  auto count_for = [](const std::string& value) {
    ::setenv("SORA_SWEEP_THREADS", value.c_str(), 1);
    return SweepRunner::default_worker_count();
  };

  EXPECT_EQ(count_for("3"), 3);
  // The last value is "4x" with a count that differs from the fallback on
  // any host, so a parser that accepts the numeric prefix cannot pass.
  const std::string bad_values[] = {
      "", "0", "-2", "abc", "4x", "99999999999999999999",
      std::to_string(fallback + 1) + "x"};
  for (const std::string& bad : bad_values) {
    EXPECT_EQ(count_for(bad), fallback) << "SORA_SWEEP_THREADS=\"" << bad
                                        << '"';
  }

  if (saved) {
    ::setenv("SORA_SWEEP_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("SORA_SWEEP_THREADS");
  }
  EXPECT_EQ(std::getenv("SORA_SWEEP_THREADS") != nullptr, saved.has_value());
}

/// A faulted run: a scripted plan that fires every fault kind once (crash,
/// CPU step, span dropout, scatter dropout, stall), shifted by the point
/// index, under an active Sora control loop. Returns the summary plus the
/// full decision-log JSONL, the strictest determinism witness we have
/// (every fault event and every controller reaction, byte for byte).
struct FaultedRun {
  ExperimentSummary summary;
  std::string decisions_jsonl;
};

FaultedRun run_faulted_point(std::size_t index) {
  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(100);
  cfg.seed = 500 + index;
  ApplicationConfig app = testutil::chain_app(0.4);
  app.services[1].with_replicas(2);  // "mid" can crash without refusal
  Experiment exp(app, cfg);
  auto& fw = exp.add_sora();
  fw.manage(ResourceKnob::entry(exp.app().service("mid")));

  exp.enable_faults(testutil::every_fault_kind(
      cfg.duration, sec(static_cast<SimTime>(index))));

  exp.closed_loop(10 + static_cast<int>(index) * 5, msec(100));
  exp.start_all();
  testutil::step_rounds(exp.sim(), fw, sec(5));
  exp.run();

  FaultedRun out;
  out.summary = exp.summary();
  std::ostringstream os;
  exp.export_decision_log(os);
  out.decisions_jsonl = os.str();
  return out;
}

// Bit parity must also hold with an active FaultPlan: the injector's RNG
// streams are per-experiment and drawn in event order, so fault timing and
// controller reactions cannot depend on worker scheduling.
TEST(SweepRunner, FaultedParallelSweepMatchesSerialByteForByte) {
  constexpr std::size_t kRuns = 4;
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto s = serial.map(kRuns, run_faulted_point);
  const auto p = parallel.map(kRuns, run_faulted_point);
  ASSERT_EQ(s.size(), kRuns);
  ASSERT_EQ(p.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_TRUE(same_sim_outputs(s[i].summary, p[i].summary))
        << "faulted run " << i << " diverged";
    EXPECT_FALSE(s[i].decisions_jsonl.empty());
    EXPECT_EQ(s[i].decisions_jsonl, p[i].decisions_jsonl)
        << "decision log of faulted run " << i << " diverged";
    // Every fault kind must actually fire, or this parity test silently
    // degenerates to a test of fewer fault paths.
    EXPECT_EQ(testutil::kinds_not_fired(s[i].decisions_jsonl),
              std::vector<std::string>{})
        << "faulted run " << i;
  }
  // Distinct seeds must produce distinct fault histories.
  EXPECT_NE(s[0].decisions_jsonl, s[1].decisions_jsonl);
}

TEST(SweepRunner, FaultedParallelSweepIsRepeatable) {
  SweepRunner runner(4);
  const auto first = runner.map(3, run_faulted_point);
  const auto second = runner.map(3, run_faulted_point);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(same_sim_outputs(first[i].summary, second[i].summary));
    EXPECT_EQ(first[i].decisions_jsonl, second[i].decisions_jsonl);
  }
}

// Each worker's Simulator registers itself as that thread's log clock;
// clocks on different threads must not interfere (the pre-PR global clock
// would tear between concurrent sims).
TEST(SweepRunner, LogClockIsPerThread) {
  SweepRunner runner(4);
  runner.map(8, [](std::size_t i) {
    Simulator sim;
    const SimTime target = sec(1) * static_cast<SimTime>(i + 1);
    sim.schedule_at(target, [] {});
    sim.run_all();
    // The thread's registered clock must read back this sim's clock, not a
    // concurrent worker's.
    SimTime logged = -1;
    EXPECT_TRUE(log_clock_now(&logged));
    EXPECT_EQ(logged, sim.now());
    return 0;
  });
}

}  // namespace
}  // namespace sora
