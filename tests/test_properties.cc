// Cross-module property tests: invariants that must hold for arbitrary
// (seeded-random) inputs, beyond the example-based unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "apps/sock_shop.h"
#include "common/rng.h"
#include "core/scg_model.h"
#include "core/sora.h"
#include "harness/experiment.h"
#include "svc/application.h"
#include "test_util.h"
#include "trace/critical_path.h"

namespace sora {
namespace {

// ---------------------------------------------------------------------------
// Simulator: event ordering is total and deterministic for random storms.
// ---------------------------------------------------------------------------

class SimStorm : public ::testing::TestWithParam<int> {};

TEST_P(SimStorm, RandomEventStormExecutesInOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Simulator sim;
  std::vector<SimTime> fired;
  for (int i = 0; i < 2000; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform_int(1000000));
    sim.schedule_at(at, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(fired.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimStorm, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// CPU: processor sharing is fair — equal-demand jobs submitted together
// complete together, for any batch size and overhead.
// ---------------------------------------------------------------------------

class PsFairness : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PsFairness, EqualJobsFinishTogether) {
  const int jobs = std::get<0>(GetParam());
  const double beta = std::get<1>(GetParam());
  Simulator sim;
  struct Ctx {
    Simulator* sim;
    std::vector<SimTime> done;
  } ctx{&sim, {}};
  CpuScheduler cpu(
      sim, 3.0, beta,
      [](void* owner, CpuScheduler::Token) {
        auto* c = static_cast<Ctx*>(owner);
        c->done.push_back(c->sim->now());
      },
      &ctx);
  const std::vector<SimTime>& done = ctx.done;
  for (int i = 0; i < jobs; ++i) cpu.submit(5000, 0);
  sim.run_all();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(jobs));
  const SimTime spread = done.back() - done.front();
  EXPECT_LE(spread, 2) << "PS must not starve equal jobs";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PsFairness,
    ::testing::Combine(::testing::Values(2, 3, 7, 16),
                       ::testing::Values(0.0, 0.3, 1.0)));

// ---------------------------------------------------------------------------
// Pool: random acquire/release/resize storms never violate capacity
// accounting, and after draining everything is granted exactly once.
// ---------------------------------------------------------------------------

class PoolStorm : public ::testing::TestWithParam<int> {};

TEST_P(PoolStorm, ResizeStormKeepsAccounting) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  Simulator sim;
  SoftResourcePool pool(sim, PoolKind::kServerThreads, "p", 4);
  int grants = 0;
  int held = 0;
  int acquires = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.uniform_int(10);
    if (op < 5) {
      ++acquires;
      pool.acquire([&] {
        ++grants;
        ++held;
      });
    } else if (op < 8 && held > 0) {
      --held;
      pool.release();
    } else {
      pool.resize(1 + static_cast<int>(rng.uniform_int(16)));
    }
    ASSERT_GE(pool.in_use(), 0);
    ASSERT_EQ(pool.in_use(), held);
  }
  while (held > 0) {
    pool.release();
    --held;
  }
  EXPECT_EQ(grants, acquires - static_cast<int>(pool.waiting()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolStorm, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Traces: for every trace the substrate produces, the span tree is
// well-formed and the critical path is a root-anchored chain whose hops
// nest within their parents.
// ---------------------------------------------------------------------------

class TraceWellFormed : public ::testing::TestWithParam<int> {};

TEST_P(TraceWellFormed, SubstrateTracesAreConsistent) {
  Simulator sim;
  Tracer tracer;
  TraceWarehouse warehouse(10000);
  warehouse.attach(tracer);
  Application app(sim, tracer, sock_shop::make_sock_shop(),
                  static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 120; ++i) {
    sim.schedule_at(i * msec(7), [&app, i] {
      app.inject(i % 3, [](SimTime) {});
    });
  }
  sim.run_all();

  std::size_t checked = 0;
  warehouse.for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    ++checked;
    std::map<std::uint64_t, const Span*> index;
    for (const Span& s : t.spans) index.emplace(s.id.value(), &s);
    for (const Span& s : t.spans) {
      EXPECT_LE(s.arrival, s.admitted);
      EXPECT_LE(s.admitted, s.departure);
      EXPECT_GE(s.downstream_wait, 0);
      EXPECT_LE(s.downstream_wait, s.duration());
      if (s.parent.valid()) {
        ASSERT_TRUE(index.count(s.parent.value()));
        const Span* parent = index[s.parent.value()];
        EXPECT_GE(s.arrival, parent->arrival);
        EXPECT_LE(s.departure, parent->departure);
      }
      for (const ChildCall& c : s.children) {
        ASSERT_LT(c.child, t.spans.size());
        EXPECT_EQ(t.spans[c.child].parent, s.id);
        EXPECT_GE(c.returned, c.issued);
      }
    }
    const CriticalPath cp = extract_critical_path(t);
    ASSERT_FALSE(cp.hops.empty());
    EXPECT_EQ(cp.hops.front().span, t.root().id);
    EXPECT_EQ(cp.total_duration, t.root().duration());
    SimTime pt_sum = 0;
    for (const auto& hop : cp.hops) pt_sum += hop.processing_time;
    EXPECT_LE(pt_sum, cp.total_duration);
  });
  EXPECT_EQ(checked, 120u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceWellFormed, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// SCG invariant: goodput never exceeds throughput in any sample, and the
// model's recommendation is within the observed concurrency range.
// ---------------------------------------------------------------------------

class ScgRangeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScgRangeProperty, RecommendationWithinObservedRange) {
  ExperimentConfig cfg;
  cfg.duration = minutes(2);
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  sock_shop::Params params;
  params.cart_cores = 2.0;
  params.cart_threads = 32;
  Experiment exp(sock_shop::make_sock_shop(params), cfg);
  const WorkloadTrace trace(TraceShape::kQuickVarying, cfg.duration, 300, 1000);
  auto& users = exp.closed_loop(300, sec(1), RequestMix(sock_shop::kBrowse));
  users.follow_trace(trace);
  ConcurrencyEstimator est(exp.sim(), exp.tracer());
  const ResourceKnob knob = ResourceKnob::entry(exp.app().service("cart"));
  est.watch(knob);
  est.set_rt_threshold(knob, msec(30));
  exp.run();

  double q_max = 0.0;
  for (const SamplePoint& p : est.sampler(knob)->points()) {
    EXPECT_LE(p.goodput, p.throughput + 1e-9);
    EXPECT_GE(p.concurrency, 0.0);
    q_max = std::max(q_max, p.concurrency);
  }
  const auto e = est.estimate(knob);
  if (e.valid) {
    EXPECT_GE(e.recommended, 1);
    EXPECT_LE(static_cast<double>(e.recommended), q_max + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScgRangeProperty, ::testing::Range(1, 5));

// ---------------------------------------------------------------------------
// Framework: managing several knobs at once keeps them independent (both
// adapt; neither is clobbered by the other's bookkeeping).
// ---------------------------------------------------------------------------

TEST(MultiKnob, CartAndCatalogueManagedTogether) {
  ExperimentConfig cfg;
  cfg.duration = minutes(5);
  cfg.sla = msec(250);
  cfg.seed = 12;
  sock_shop::Params params;
  params.cart_cores = 4.0;
  params.cart_threads = 2;              // starved for this load
  params.catalogue_db_connections = 2;  // starved once cart recovers
  Experiment exp(sock_shop::make_sock_shop(params), cfg);
  // Load high enough that BOTH gates choke: the cart pool first; then,
  // once Sora grows it and traffic reaches the catalogue branch at full
  // rate, the 2-connection DB gate (fixing one knob exposes the other).
  exp.closed_loop(2600, sec(1), RequestMix(sock_shop::kBrowse));

  SoraFrameworkOptions so;
  so.sla = cfg.sla;
  auto& sora = exp.add_sora(so);
  const ResourceKnob cart = ResourceKnob::entry(exp.app().service("cart"));
  const ResourceKnob cat =
      ResourceKnob::edge(exp.app().service("catalogue"), "catalogue-db");
  sora.manage(cart);
  sora.manage(cat);
  EXPECT_EQ(sora.managed().size(), 2u);

  exp.run();
  // Both starved pools must have been grown.
  EXPECT_GT(cart.current_size(), 2);
  EXPECT_GT(cat.current_size(), 2);
  // Independent thresholds were propagated for each.
  EXPECT_GT(sora.estimator().rt_threshold(cart), 0);
  EXPECT_GT(sora.estimator().rt_threshold(cat), 0);
}

// ---------------------------------------------------------------------------
// Workload: the open-loop thinning sampler reproduces the trace's relative
// intensity profile for every shape.
// ---------------------------------------------------------------------------

class OpenLoopShapes : public ::testing::TestWithParam<TraceShape> {};

TEST_P(OpenLoopShapes, ArrivalsFollowIntensity) {
  Simulator sim;
  struct Sink : LoadTarget {
    std::vector<SimTime> arrivals;
    Simulator& sim;
    explicit Sink(Simulator& s) : sim(s) {}
    void inject(const RequestMeta&, Completion cb) override {
      arrivals.push_back(sim.now());
      cb(0, true);
    }
  } sink{sim};
  const SimTime duration = sec(60);
  WorkloadTrace trace(GetParam(), duration, 50.0, 800.0);
  OpenLoopGenerator gen(sim, sink, trace, 77);
  gen.start();
  sim.run_all();

  // Compare per-10s bucket arrival counts against the integrated rate.
  const int buckets = 6;
  std::vector<double> counts(buckets, 0.0), expected(buckets, 0.0);
  for (SimTime t : sink.arrivals) {
    counts[std::min<int>(buckets - 1, static_cast<int>(t / sec(10)))] += 1.0;
  }
  for (int b = 0; b < buckets; ++b) {
    for (int i = 0; i < 100; ++i) {
      expected[b] += trace.rate_at(b * sec(10) + i * msec(100)) * 0.1;
    }
  }
  for (int b = 0; b < buckets; ++b) {
    EXPECT_NEAR(counts[b], expected[b],
                std::max(60.0, expected[b] * 0.15))
        << to_string(GetParam()) << " bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, OpenLoopShapes, ::testing::ValuesIn(all_trace_shapes()),
    [](const ::testing::TestParamInfo<TraceShape>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Vertical scaling invariant: adding cores never reduces a service's
// completion count over the same workload and seed.
// ---------------------------------------------------------------------------

class MoreCoresNeverWorse : public ::testing::TestWithParam<double> {};

TEST_P(MoreCoresNeverWorse, CompletionsMonotoneInCores) {
  auto run = [&](double cores) {
    ExperimentConfig cfg;
    cfg.duration = minutes(1);
    cfg.seed = 5;
    ApplicationConfig app = testutil::single_service(cores, 16, 4000, 2000, 0.5);
    Experiment exp(std::move(app), cfg);
    exp.closed_loop(60, msec(100));
    exp.run();
    return exp.app().completed();
  };
  const double cores = GetParam();
  // 20% slack: the closed loop reshuffles think times across runs.
  EXPECT_GE(run(cores * 2) * 1.2, run(cores));
}

INSTANTIATE_TEST_SUITE_P(Cores, MoreCoresNeverWorse,
                         ::testing::Values(1.0, 2.0, 4.0));

}  // namespace
}  // namespace sora
