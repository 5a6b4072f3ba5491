#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "apps/sock_shop.h"
#include "harness/experiment.h"
#include "sim/simulator.h"

namespace sora::obs {
namespace {

std::uint64_t calls_of(const std::vector<StageStats>& stats, Stage stage) {
  for (const StageStats& s : stats) {
    if (s.stage == stage_name(stage)) return s.calls;
  }
  return 0;
}

std::uint64_t calls_of(const StageTable& table, Stage stage) {
  return calls_of(table.stats(), stage);
}

TEST(OverheadProfiler, RecordAccumulatesPerStage) {
  StageTable t;
  t.record(Stage::kScgPolyfit, 100.0);
  t.record(Stage::kScgPolyfit, 300.0);
  t.record(Stage::kScgKneedle, 50.0);

  const auto stats = t.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "scg.kneedle");
  EXPECT_EQ(stats[1].stage, "scg.polyfit");
  EXPECT_EQ(stats[1].calls, 2u);
  EXPECT_DOUBLE_EQ(stats[1].total_us, 400.0);
  EXPECT_DOUBLE_EQ(stats[1].max_us, 300.0);
  EXPECT_DOUBLE_EQ(stats[1].mean_us(), 200.0);
}

TEST(OverheadProfiler, ScopeRecordsElapsedWallTime) {
  StageTable t;
  {
    const StageTable::Install install(t);
    SORA_PROFILE_STAGE(Stage::kScgEstimate);
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  }
  const auto stats = t.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].stage, "scg.estimate");
  EXPECT_EQ(stats[0].calls, 1u);
  EXPECT_GE(stats[0].total_us, 0.0);
}

TEST(OverheadProfiler, PrintRendersEveryStage) {
  StageTable t;
  t.record(Stage::kScgPolyfit, 123.0);
  t.record(Stage::kSoraControlRound, 456.0);
  std::ostringstream os;
  StageTable::print(t.stats(), os);
  EXPECT_NE(os.str().find("scg.polyfit"), std::string::npos);
  EXPECT_NE(os.str().find("sora.control_round"), std::string::npos);
}

TEST(StageTable, StatsAreNameSortedAndOmitUncalledStages) {
  StageTable t;
  EXPECT_TRUE(t.stats().empty());
  // Every stage but one, recorded in reverse declaration order.
  for (std::size_t i = kStageCount; i-- > 1;) {
    t.record(static_cast<Stage>(i), 1.0);
  }
  const auto stats = t.stats();
  ASSERT_EQ(stats.size(), kStageCount - 1);
  EXPECT_EQ(calls_of(stats, Stage::kScgAggregate), 0u);
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_LT(stats[i - 1].stage, stats[i].stage);
  }
  EXPECT_EQ(stats.front().stage, "scg.estimate");
  EXPECT_EQ(stats.back().stage, "trace.critical_path");
}

TEST(StageTable, MacroInsideASimulatorRunLandsInThatSimulatorsTable) {
  Simulator sim;
  const std::uint64_t fallback_before =
      calls_of(StageTable::current(), Stage::kScgEstimate);
  for (SimTime at : {10, 20, 30}) {
    sim.schedule_at(at, [] { SORA_PROFILE_STAGE(Stage::kScgEstimate); });
  }
  // Each run entry point installs the simulator's table.
  ASSERT_TRUE(sim.step());
  sim.run_until(20);
  sim.run_all();
  EXPECT_EQ(calls_of(sim.stages(), Stage::kScgEstimate), 3u);
  EXPECT_EQ(calls_of(StageTable::current(), Stage::kScgEstimate),
            fallback_before);
}

TEST(StageTable, MacroOutsideAnyRunLandsInTheFallbackTable) {
  Simulator sim;
  const std::uint64_t before =
      calls_of(StageTable::current(), Stage::kScgKneedle);
  { SORA_PROFILE_STAGE(Stage::kScgKneedle); }
  EXPECT_EQ(calls_of(StageTable::current(), Stage::kScgKneedle), before + 1);
  EXPECT_TRUE(sim.stages().stats().empty());
}

TEST(StageTable, NestedInstallGuardsRestoreThePreviousTable) {
  StageTable* const fallback = &StageTable::current();
  StageTable outer;
  StageTable inner;
  {
    const StageTable::Install a(outer);
    EXPECT_EQ(&StageTable::current(), &outer);
    { SORA_PROFILE_STAGE(Stage::kScgPolyfit); }
    {
      const StageTable::Install b(inner);
      EXPECT_EQ(&StageTable::current(), &inner);
      SORA_PROFILE_STAGE(Stage::kScgPolyfit);
    }
    EXPECT_EQ(&StageTable::current(), &outer);
    { SORA_PROFILE_STAGE(Stage::kScgPolyfit); }
  }
  EXPECT_EQ(&StageTable::current(), fallback);
  EXPECT_EQ(calls_of(outer, Stage::kScgPolyfit), 2u);
  EXPECT_EQ(calls_of(inner, Stage::kScgPolyfit), 1u);
}

// Two simulators built on one thread, run one after the other: each keeps
// its own stages, and the first run's max is not the second's.
TEST(StageTable, MaxDoesNotCarryOverFromOneTableToTheNext) {
  Simulator first;
  Simulator second;
  first.schedule_at(1, [] {
    StageTable::current().record(Stage::kSoraControlRound, 500.0);
  });
  second.schedule_at(1, [] {
    StageTable::current().record(Stage::kSoraControlRound, 7.0);
  });
  first.run_all();
  second.run_all();
  const auto a = first.stages().stats();
  const auto b = second.stages().stats();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0].max_us, 500.0);
  EXPECT_EQ(b[0].calls, 1u);
  EXPECT_DOUBLE_EQ(b[0].max_us, 7.0);
}

struct CartRun {
  std::uint64_t stored = 0;
  std::uint64_t sora_rounds = 0;
  std::vector<StageStats> stages;
};

// A short Figure-10 cart experiment: FIRM always, Sora on top if asked.
std::unique_ptr<Experiment> cart_experiment(std::uint64_t seed, bool sora) {
  sock_shop::Params params;
  params.cart_cores = 2.0;
  params.cart_threads = 5;
  ExperimentConfig cfg;
  cfg.duration = sec(30);
  cfg.sla = msec(400);
  cfg.seed = seed;
  auto exp = std::make_unique<Experiment>(sock_shop::make_sock_shop(params),
                                          cfg);
  exp->closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse))
      .follow_trace(
          WorkloadTrace(TraceShape::kSteepTriPhase, cfg.duration, 600, 2400));
  FirmOptions fo;
  fo.slo_latency = cfg.sla;
  fo.min_cores = 2.0;
  fo.max_cores = 4.0;
  auto& firm = exp->add_firm(fo);
  firm.manage(exp->app().service("cart"));
  if (sora) {
    SoraFrameworkOptions so;
    so.sla = cfg.sla;
    auto& fw = exp->add_sora(so);
    fw.manage(ResourceKnob::entry(exp->app().service("cart")));
    Experiment::link(firm, fw);
  }
  return exp;
}

// Two different experiments run at the same time on two threads; each
// summary reports its own simulation's stages and nothing of the other's.
// Both threads finish their runs before either reads its summary, so a
// shared table would show the other run's calls in full.
TEST(StageTable, AttributionSurvivesConcurrentExperiments) {
  std::latch built(2);
  std::latch ran(2);
  CartRun runs[2];
  auto worker = [&](int i) {
    auto exp = cart_experiment(i == 0 ? 42 : 7, i == 1);
    built.arrive_and_wait();
    exp->run();
    ran.arrive_and_wait();
    runs[i].stored = exp->warehouse().total_stored();
    for (const auto& fw : exp->frameworks()) {
      runs[i].sora_rounds += fw->control_rounds();
    }
    runs[i].stages = exp->summary().controller_overhead;
  };
  std::thread firm_only(worker, 0);
  std::thread with_sora(worker, 1);
  firm_only.join();
  with_sora.join();

  EXPECT_EQ(runs[0].sora_rounds, 0u);
  EXPECT_GT(runs[1].sora_rounds, 0u);
  for (const CartRun& r : runs) {
    EXPECT_GT(r.stored, 0u);
    EXPECT_EQ(calls_of(r.stages, Stage::kTraceCriticalPath), r.stored);
    EXPECT_EQ(calls_of(r.stages, Stage::kSoraControlRound), r.sora_rounds);
    EXPECT_EQ(calls_of(r.stages, Stage::kSoraLocalization), r.sora_rounds);
  }
}

}  // namespace
}  // namespace sora::obs
