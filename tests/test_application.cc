// End-to-end request execution through the microservice substrate.
#include "svc/application.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "trace/tracer.h"
#include "trace/warehouse.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  TraceWarehouse warehouse{1024};
  Application app;
  explicit Fixture(ApplicationConfig cfg, std::uint64_t seed = 1)
      : app(sim, tracer, std::move(cfg), seed) {
    warehouse.attach(tracer);
  }
};

TEST(Application, SingleServiceRequestTiming) {
  // Deterministic demands (cv = 0): rt = req + resp exactly.
  Fixture f(testutil::single_service(2.0, 8, 1000, 500, 0.0));
  SimTime rt = -1;
  f.app.inject(0, [&](SimTime r) { rt = r; });
  f.sim.run_all();
  EXPECT_EQ(rt, 1500);
  EXPECT_EQ(f.app.injected(), 1u);
  EXPECT_EQ(f.app.completed(), 1u);
  EXPECT_EQ(f.app.in_flight(), 0u);
}

TEST(Application, ChainTiming) {
  // front 500+300, mid 800+400, leaf 1200 -> total 3200 (idle system).
  Fixture f(testutil::chain_app());
  SimTime rt = -1;
  f.app.inject(0, [&](SimTime r) { rt = r; });
  f.sim.run_all();
  EXPECT_EQ(rt, 3200);
}

TEST(Application, ChainTraceStructure) {
  Fixture f(testutil::chain_app());
  f.app.inject(0, [](SimTime) {});
  f.sim.run_all();
  ASSERT_EQ(f.warehouse.size(), 1u);
  f.warehouse.for_each_in_window(0, INT64_MAX, [&](const Trace& t) {
    ASSERT_EQ(t.spans.size(), 3u);
    const Span& front = t.spans[0];
    const Span& mid = t.spans[1];
    const Span& leaf = t.spans[2];
    EXPECT_FALSE(front.parent.valid());
    EXPECT_EQ(mid.parent, front.id);
    EXPECT_EQ(leaf.parent, mid.id);
    // Timestamps nest properly.
    EXPECT_LE(front.arrival, mid.arrival);
    EXPECT_LE(mid.arrival, leaf.arrival);
    EXPECT_LE(leaf.departure, mid.departure);
    EXPECT_LE(mid.departure, front.departure);
    // Processing times: front 800, mid 1200, leaf 1200.
    EXPECT_EQ(front.processing_time(), 800);
    EXPECT_EQ(mid.processing_time(), 1200);
    EXPECT_EQ(leaf.processing_time(), 1200);
    // Downstream waits recorded.
    EXPECT_EQ(front.downstream_wait, mid.duration());
    EXPECT_EQ(mid.downstream_wait, leaf.duration());
    ASSERT_EQ(front.children.size(), 1u);
    EXPECT_EQ(front.children[0].child, 1u);
  });
}

TEST(Application, ParallelFanoutOverlaps) {
  // front 200+200; a=3000, b=1000 in parallel -> rt = 400 + max(3000,1000).
  Fixture f(testutil::fanout_app(3000, 1000));
  SimTime rt = -1;
  f.app.inject(0, [&](SimTime r) { rt = r; });
  f.sim.run_all();
  EXPECT_EQ(rt, 3400);
}

TEST(Application, FanoutDownstreamWaitCountsOnce) {
  Fixture f(testutil::fanout_app(3000, 1000));
  f.app.inject(0, [](SimTime) {});
  f.sim.run_all();
  f.warehouse.for_each_in_window(0, INT64_MAX, [&](const Trace& t) {
    EXPECT_EQ(t.root().downstream_wait, 3000);  // parallel wait, not 4000
    EXPECT_EQ(t.root().processing_time(), 400);
  });
}

TEST(Application, EntryPoolQueueingDelaysRequests) {
  // Pool of 1, two requests: the second queues behind the first.
  Fixture f(testutil::single_service(4.0, 1, 1000, 0, 0.0));
  std::vector<SimTime> rts;
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.sim.run_all();
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_EQ(rts[0], 1000);
  EXPECT_EQ(rts[1], 2000);  // waited 1000 in the entry queue
}

TEST(Application, EdgePoolGatesConcurrentCalls) {
  // 1 connection, db takes 1000us with 4 cores: two calls serialize.
  Fixture f(testutil::edge_pool_app(1, 1000, 0.0));
  std::vector<SimTime> rts;
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.sim.run_all();
  ASSERT_EQ(rts.size(), 2u);
  // First: 100 + 1000 + 100 = 1200. Second waits ~1000 for the connection.
  EXPECT_EQ(rts[0], 1200);
  EXPECT_GE(rts[1], 2000);
}

TEST(Application, EdgePoolWiderAllowsParallelism) {
  Fixture f(testutil::edge_pool_app(2, 1000, 0.0));
  std::vector<SimTime> rts;
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.sim.run_all();
  ASSERT_EQ(rts.size(), 2u);
  EXPECT_EQ(rts[0], 1200);
  EXPECT_EQ(rts[1], 1200);  // db has 4 cores: both run at full speed
}

TEST(Application, ConservationUnderLoad) {
  Fixture f(testutil::chain_app(0.5), 99);
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    f.sim.schedule_at(i * 500, [&] {
      f.app.inject(0, [&](SimTime) { ++completed; });
    });
  }
  f.sim.run_all();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(f.app.injected(), 200u);
  EXPECT_EQ(f.app.completed(), 200u);
  EXPECT_EQ(f.app.in_flight(), 0u);
  EXPECT_EQ(f.tracer.open_traces(), 0u);
  EXPECT_EQ(f.warehouse.size(), 200u);
}

TEST(Application, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Fixture f(testutil::chain_app(0.7), seed);
    std::vector<SimTime> rts;
    for (int i = 0; i < 50; ++i) {
      f.sim.schedule_at(i * 1000, [&] {
        f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
      });
    }
    f.sim.run_all();
    return rts;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Application, NetworkLatencyAddsDelay) {
  ApplicationConfig cfg = testutil::chain_app();
  cfg.network_latency = msec(1);
  Fixture f(std::move(cfg));
  SimTime rt = -1;
  f.app.inject(0, [&](SimTime r) { rt = r; });
  f.sim.run_all();
  // 2 hops x 2 directions x 1ms = 4ms extra.
  EXPECT_EQ(rt, 3200 + 4000);
}

TEST(Application, ServiceLookup) {
  Fixture f(testutil::chain_app());
  EXPECT_NE(f.app.service("front"), nullptr);
  EXPECT_EQ(f.app.service("nope"), nullptr);
  const Service* front = f.app.service("front");
  EXPECT_EQ(f.app.service(front->id()), front);
  EXPECT_EQ(f.app.service_name(front->id()), "front");
  EXPECT_EQ(f.app.service_name(ServiceId(999)), "?");
}

TEST(Application, MultipleReplicasRoundRobin) {
  ApplicationConfig cfg = testutil::single_service(2.0, 4, 1000, 0, 0.0);
  cfg.services[0].initial_replicas = 2;
  Fixture f(std::move(cfg));
  Service* svc = f.app.service("svc");
  ASSERT_EQ(svc->active_replicas(), 2);
  // Two simultaneous requests land on different replicas: both at 1000us.
  std::vector<SimTime> rts;
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.app.inject(0, [&](SimTime r) { rts.push_back(r); });
  f.sim.run_all();
  EXPECT_EQ(rts[0], 1000);
  EXPECT_EQ(rts[1], 1000);
  EXPECT_EQ(svc->completions(), 2u);
}

}  // namespace
}  // namespace sora
