// Tests for Service: compilation, scaling knobs, aggregates.
#include "svc/service.h"

#include <gtest/gtest.h>

#include <vector>

#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  Application app;
  explicit Fixture(ApplicationConfig cfg, std::uint64_t seed = 1)
      : app(sim, tracer, std::move(cfg), seed) {}
};

TEST(Service, CompilesTopology) {
  Fixture f(testutil::chain_app());
  Service* front = f.app.service("front");
  ASSERT_NE(front, nullptr);
  const CompiledBehavior& b = front->behavior(0);
  ASSERT_EQ(b.groups.size(), 1u);
  ASSERT_EQ(b.groups[0].calls.size(), 1u);
  EXPECT_EQ(b.groups[0].calls[0].target, f.app.service("mid"));
  EXPECT_EQ(b.groups[0].calls[0].edge_index, -1);  // ungated
}

TEST(Service, BehaviorFallsBackToClassZero) {
  Fixture f(testutil::single_service());
  Service* svc = f.app.service("svc");
  const CompiledBehavior& b0 = svc->behavior(0);
  const CompiledBehavior& b7 = svc->behavior(7);
  EXPECT_DOUBLE_EQ(b7.request_demand.mean_us, b0.request_demand.mean_us);
}

TEST(Service, EdgePoolIndexing) {
  Fixture f(testutil::edge_pool_app(5));
  Service* caller = f.app.service("caller");
  EXPECT_GE(caller->edge_index_of("db"), 0);
  EXPECT_EQ(caller->edge_index_of("nope"), -1);
  EXPECT_EQ(caller->edge_pool_size("db"), 5);
  EXPECT_EQ(caller->edge_capacity("db"), 5);
  const CompiledBehavior& b = caller->behavior(0);
  EXPECT_EQ(b.groups[0].calls[0].edge_index, caller->edge_index_of("db"));
}

TEST(Service, ScaleReplicasUpCreatesInstances) {
  Fixture f(testutil::single_service());
  Service* svc = f.app.service("svc");
  EXPECT_EQ(svc->active_replicas(), 1);
  svc->scale_replicas(3);
  EXPECT_EQ(svc->active_replicas(), 3);
  EXPECT_EQ(svc->total_replicas(), 3u);
  // Entry capacity aggregates across replicas (8 per replica).
  EXPECT_EQ(svc->entry_capacity(), 24);
}

TEST(Service, ScaleReplicasDownDeactivates) {
  Fixture f(testutil::single_service());
  Service* svc = f.app.service("svc");
  svc->scale_replicas(4);
  svc->scale_replicas(2);
  EXPECT_EQ(svc->active_replicas(), 2);
  EXPECT_EQ(svc->total_replicas(), 4u);  // instances retained for reuse
  svc->scale_replicas(3);                 // reactivates one
  EXPECT_EQ(svc->active_replicas(), 3);
  EXPECT_EQ(svc->total_replicas(), 4u);
}

TEST(Service, ScaleNeverBelowOne) {
  Fixture f(testutil::single_service());
  Service* svc = f.app.service("svc");
  svc->scale_replicas(0);
  EXPECT_EQ(svc->active_replicas(), 1);
}

TEST(Service, VerticalScalingAppliesToAllReplicas) {
  Fixture f(testutil::single_service(2.0));
  Service* svc = f.app.service("svc");
  svc->scale_replicas(3);
  svc->set_cpu_limit(4.0);
  EXPECT_DOUBLE_EQ(svc->cpu_limit(), 4.0);
  for (std::size_t i = 0; i < svc->total_replicas(); ++i) {
    EXPECT_DOUBLE_EQ(svc->instance(i).cpu().cores(), 4.0);
  }
  EXPECT_DOUBLE_EQ(svc->cpu_capacity(), 12.0);
}

TEST(Service, ResizeEntryPoolAppliesToAllReplicas) {
  Fixture f(testutil::single_service(2.0, 8));
  Service* svc = f.app.service("svc");
  svc->scale_replicas(2);
  svc->resize_entry_pool(20);
  EXPECT_EQ(svc->entry_pool_size(), 20);
  EXPECT_EQ(svc->entry_capacity(), 40);
}

TEST(Service, ResizeEdgePool) {
  Fixture f(testutil::edge_pool_app(5));
  Service* caller = f.app.service("caller");
  caller->resize_edge_pool("db", 12);
  EXPECT_EQ(caller->edge_pool_size("db"), 12);
  EXPECT_EQ(caller->edge_capacity("db"), 12);
}

TEST(Service, ReactivatedReplicaInheritsCurrentKnobs) {
  Fixture f(testutil::single_service(2.0, 8));
  Service* svc = f.app.service("svc");
  svc->scale_replicas(2);
  svc->scale_replicas(1);
  // Change knobs while replica 1 is inactive.
  svc->set_cpu_limit(4.0);
  svc->resize_entry_pool(16);
  svc->scale_replicas(2);
  EXPECT_DOUBLE_EQ(svc->instance(1).cpu().cores(), 4.0);
  EXPECT_EQ(svc->instance(1).entry_pool().capacity(), 16);
}

TEST(Service, DemandScale) {
  Fixture f(testutil::single_service());
  Service* svc = f.app.service("svc");
  EXPECT_DOUBLE_EQ(svc->demand_scale(), 1.0);
  svc->set_demand_scale(2.5);
  EXPECT_DOUBLE_EQ(svc->demand_scale(), 2.5);
}

TEST(Service, UnlimitedEntryPool) {
  ApplicationConfig cfg = testutil::single_service();
  cfg.services[0].entry_pool_size = 0;
  Fixture f(std::move(cfg));
  Service* svc = f.app.service("svc");
  EXPECT_GE(svc->instance(0).entry_pool().capacity(), 1'000'000);
}

// Sends one request at a time through a single-service application and
// reports the index of the replica that served it.
struct RoutingProbe {
  Fixture f{testutil::single_service()};
  Service* svc = f.app.service("svc");
  std::vector<std::size_t> served;  // replica index of each finished visit

  RoutingProbe() {
    f.tracer.add_span_listener(svc->id(), [this](const Span& s) {
      for (std::size_t i = 0; i < svc->total_replicas(); ++i) {
        if (svc->instance(i).id() == s.instance) served.push_back(i);
      }
    });
  }
  std::size_t send(Priority p = Priority::kHigh) {
    const std::size_t before = served.size();
    f.app.inject(RequestMeta{0, p, 0}, [](SimTime, bool) {});
    f.sim.run_all();
    return served.size() == before + 1 ? served.back() : std::size_t{99};
  }
};

// Round robin rotates over the replicas in instance order.
TEST(LoadBalancer, RoundRobinCycles) {
  RoutingProbe probe;
  probe.svc->scale_replicas(3);
  EXPECT_EQ(probe.send(), 0u);
  EXPECT_EQ(probe.send(), 1u);
  EXPECT_EQ(probe.send(), 2u);
  EXPECT_EQ(probe.send(), 0u);
}

// A replica that goes down mid-rotation is skipped; the rotation walks the
// remaining active replicas in instance order.
TEST(LoadBalancer, RoundRobinHandlesShrinkingSet) {
  RoutingProbe probe;
  probe.svc->scale_replicas(3);
  EXPECT_EQ(probe.send(), 0u);
  EXPECT_EQ(probe.send(), 1u);
  ASSERT_TRUE(probe.svc->crash_replica(1, /*drop_inflight=*/false));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(probe.send(), 0u);
    EXPECT_EQ(probe.send(), 2u);
  }
  ASSERT_TRUE(probe.svc->restore_replica(1));
  EXPECT_EQ(probe.send(), 1u);  // turn 10 lands on 10 % 3 = 1
}

TEST(LoadBalancer, SingleReplica) {
  RoutingProbe probe;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(probe.send(Priority::kHigh), 0u);
    EXPECT_EQ(probe.send(Priority::kBatch), 0u);
  }
}

// Each priority class has its own rotation, so batch requests interleaved
// with high-priority ones do not shift the high-priority sequence.
TEST(Service, RoundRobinKeepsOneRotationPerPriority) {
  RoutingProbe probe;
  probe.svc->scale_replicas(3);
  EXPECT_EQ(probe.send(Priority::kHigh), 0u);
  EXPECT_EQ(probe.send(Priority::kBatch), 0u);
  EXPECT_EQ(probe.send(Priority::kHigh), 1u);
  EXPECT_EQ(probe.send(Priority::kBatch), 1u);
  EXPECT_EQ(probe.send(Priority::kBatch), 2u);
  EXPECT_EQ(probe.send(Priority::kHigh), 2u);
  EXPECT_EQ(probe.send(Priority::kHigh), 0u);
}

// A crash that drops in-flight visits aborts exactly the visits the replica
// was serving, waiting or running, and none of the idle pooled visits: after
// the replica comes back, requests on recycled visits all succeed.
TEST(Service, DropInflightCondemnsExactlyTheInFlightVisits) {
  // No response CPU and no calls: a visit in flight at the crash reaches a
  // condemned-check continuation (admission or the end of its request CPU)
  // before it could finish, so every one of them aborts.
  ApplicationConfig cfg = testutil::single_service(1.0, 3, 2000, 0, 0.0);
  Fixture f(std::move(cfg));
  Service* svc = f.app.service("svc");
  svc->scale_replicas(2);
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  f.tracer.add_span_listener(svc->id(), [&](const Span& s) {
    ++(s.failed ? failed : ok);
  });
  const auto send_burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      f.app.inject(RequestMeta{0, Priority::kHigh, 0}, [](SimTime, bool) {});
    }
  };

  // Warm the pool: replica 0 holds eight visits at once, then recycles
  // them, so three of them stay idle through the crash below.
  send_burst(16);
  f.sim.run_all();
  ASSERT_EQ(failed, 0u);
  ASSERT_EQ(ok, 16u);

  // Five arrivals on replica 0: three hold its entry slots, two queue.
  send_burst(10);
  f.sim.run_until(f.sim.now() + 500);
  ServiceInstance& inst = svc->instance(0);
  const int in_flight = inst.outstanding();
  ASSERT_EQ(in_flight, 5);
  ASSERT_TRUE(svc->crash_replica(0, /*drop_inflight=*/true));
  f.sim.run_all();
  EXPECT_EQ(inst.visits_dropped(), static_cast<std::uint64_t>(in_flight));
  EXPECT_EQ(failed, static_cast<std::uint64_t>(in_flight));
  EXPECT_EQ(ok, 16u + 10u - static_cast<std::uint64_t>(in_flight));
  EXPECT_EQ(inst.outstanding(), 0);

  // Back up: the eight visits replica 0 holds at once now are all recycled,
  // the five aborted ones and the three that sat idle through the crash.
  ASSERT_TRUE(svc->restore_replica(0));
  send_burst(16);
  f.sim.run_all();
  EXPECT_EQ(inst.visits_dropped(), static_cast<std::uint64_t>(in_flight));
  EXPECT_EQ(failed, static_cast<std::uint64_t>(in_flight));
  EXPECT_EQ(ok, 16u + 10u + 16u - static_cast<std::uint64_t>(in_flight));
}

}  // namespace
}  // namespace sora
