// Causal profiler: counterfactual determinism (control re-run digests),
// serial-vs-parallel profile bit parity, ranking sanity on a topology with
// a known bottleneck, and the decision-log records each round appends.
#include "harness/causal_lab.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "test_util.h"

namespace sora {
namespace {

/// Fan-out front -> {a, b} where a is 10x slower: the unambiguous causal
/// bottleneck. Stochastic demands (cv) keep the runs non-trivial.
CausalLab::Builder fanout_builder() {
  return [] {
    ExperimentConfig cfg;
    cfg.duration = sec(30);
    cfg.sla = msec(50);
    cfg.seed = 7;
    auto exp = std::make_unique<Experiment>(
        testutil::fanout_app(/*a_us=*/5000, /*b_us=*/500, /*cv=*/0.5), cfg);
    exp->closed_loop(40, msec(20));
    return exp;
  };
}

CausalLabOptions fanout_options(int threads) {
  CausalLabOptions opts;
  opts.checkpoint = sec(10);
  opts.speedup_factors = {0.75};
  opts.pool_delta = 2;
  opts.services = {"a", "b"};
  opts.threads = threads;
  opts.scenario = "test";
  return opts;
}

TEST(CausalLab, ControlReRunIsByteIdentical) {
  CausalLab lab(fanout_builder(), fanout_options(1));
  const obs::CausalProfile p = lab.run();
  EXPECT_TRUE(p.control_identical);
  EXPECT_EQ(p.control_sim_digest, p.primary_sim_digest);
  EXPECT_EQ(p.control_trace_digest, p.primary_trace_digest);
  EXPECT_NE(p.primary_sim_digest, 0u);
}

TEST(CausalLab, SerialAndParallelProfilesAreBitIdentical) {
  CausalLab serial(fanout_builder(), fanout_options(1));
  CausalLab parallel(fanout_builder(), fanout_options(4));
  const std::string serial_json = serial.run().to_json();
  const std::string parallel_json = parallel.run().to_json();
  EXPECT_EQ(serial_json, parallel_json);
}

TEST(CausalLab, SpeedupRankingFindsTheBottleneck) {
  CausalLab lab(fanout_builder(), fanout_options(2));
  const obs::CausalProfile p = lab.run();
  // 6 perturbations planned: speedup(0.75) + pool +/-2 for each of {a, b}.
  EXPECT_EQ(p.effects.size(), 6u);
  const std::vector<std::string> ranking = p.causal_service_ranking();
  ASSERT_GE(ranking.size(), 2u);
  // Speeding up the 5 ms service must beat speeding up the 0.5 ms one.
  EXPECT_EQ(ranking.front(), "a");
  EXPECT_EQ(p.causal_pick, "a");
  double a_delta = 0.0, b_delta = 0.0;
  for (const obs::CausalEffect& e : p.effects) {
    if (e.perturbation.kind != obs::PerturbationKind::kServiceSpeedup) {
      continue;
    }
    if (e.perturbation.service == "a") a_delta = e.delta_p99_ms();
    if (e.perturbation.service == "b") b_delta = e.delta_p99_ms();
  }
  EXPECT_LT(a_delta, 0.0);      // speeding up the bottleneck helps the tail
  EXPECT_LT(a_delta, b_delta);  // and helps more than the slack branch
}

TEST(CausalLab, EffectsCarrySpanAlignment) {
  CausalLab lab(fanout_builder(), fanout_options(2));
  const obs::CausalProfile p = lab.run();
  for (const obs::CausalEffect& e : p.effects) {
    EXPECT_GT(e.diff.traces_aligned, 0u);
    EXPECT_FALSE(e.edges.empty());
  }
}

TEST(CausalLab, AppendsDecisionRecords) {
  CausalLab lab(fanout_builder(), fanout_options(1));
  const obs::CausalProfile p = lab.run();
  std::size_t effect_records = 0, rank_records = 0;
  for (const obs::ControlDecisionRecord& rec :
       lab.baseline().decision_log().records()) {
    if (rec.controller != "causal") continue;
    if (rec.action == "causal_effect") {
      ++effect_records;
      EXPECT_FALSE(rec.causal_perturbation.empty());
    }
    if (rec.action == "causal_rank") {
      ++rank_records;
      EXPECT_EQ(rec.target, p.causal_pick);
      EXPECT_EQ(rec.causal_rank, p.ranking_string());
    }
  }
  EXPECT_EQ(effect_records, p.effects.size());
  EXPECT_EQ(rank_records, 1u);
}

TEST(CausalLab, ProfileJsonIsWellFormedDocument) {
  CausalLab lab(fanout_builder(), fanout_options(2));
  const obs::CausalProfile p = lab.run();
  const std::string doc = CausalLab::profiles_json({p});
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  EXPECT_NE(doc.find("\"profiles\""), std::string::npos);
  EXPECT_NE(doc.find("\"scenario\":\"test\""), std::string::npos);
  EXPECT_NE(doc.find("\"effects\""), std::string::npos);
}

}  // namespace
}  // namespace sora
