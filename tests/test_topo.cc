// Tests for the planet-scale topology synthesizer (src/topo).
#include "topo/synth.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "harness/experiment.h"
#include "topo/export.h"

namespace sora::topo {
namespace {

TopologyConfig small_config(std::uint64_t seed = 1) {
  TopologyConfig cfg;
  cfg.seed = seed;
  cfg.services = 120;
  cfg.tenants = 3;
  cfg.entries_per_tenant = 2;
  cfg.async_cycle_fraction = 0.2;  // make async edges likely in a small graph
  return cfg;
}

std::string serialized(const Topology& topo) {
  std::ostringstream os;
  write_json(os, topo);
  std::ostringstream dot;
  write_dot(dot, topo);
  return os.str() + dot.str();
}

TEST(TopoSynth, SameConfigAndSeedIsByteIdentical) {
  const Topology a = synthesize(small_config());
  const Topology b = synthesize(small_config());
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(TopoSynth, DifferentSeedDiffers) {
  const Topology a = synthesize(small_config(1));
  const Topology b = synthesize(small_config(2));
  EXPECT_NE(serialized(a), serialized(b));
}

TEST(TopoSynth, RejectsImpossibleBudgets) {
  TopologyConfig cfg = small_config();
  cfg.services = 10;  // can't fit 6 entries + shared tiers + 3 mids
  EXPECT_THROW(synthesize(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.tenants = 0;
  EXPECT_THROW(synthesize(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.async_cycle_fraction = 1.5;
  EXPECT_THROW(synthesize(cfg), std::invalid_argument);
}

TEST(TopoSynth, StructureIsSane) {
  const TopologyConfig cfg = small_config();
  const Topology topo = synthesize(cfg);
  const TopologyStats stats = topo.stats();

  EXPECT_EQ(stats.services, cfg.services);
  EXPECT_EQ(static_cast<int>(topo.app.services.size()), cfg.services);
  EXPECT_EQ(stats.entries, cfg.tenants * cfg.entries_per_tenant);
  EXPECT_GT(stats.shared_services, 0);
  EXPECT_EQ(stats.entries + stats.mid_services + stats.shared_services,
            cfg.services);

  int histogram_total = 0;
  for (int count : stats.depth_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, cfg.services);

  // One request class per (tenant, entry); the callback class sits one past.
  EXPECT_EQ(static_cast<int>(topo.app.entry_service.size()),
            cfg.tenants * cfg.entries_per_tenant);
  EXPECT_EQ(topo.callback_class, cfg.tenants * cfg.entries_per_tenant);

  // Every mid service is reachable: nonzero sync in-degree.
  std::vector<int> in_degree(topo.app.services.size(), 0);
  for (const TopologyEdge& e : topo.edges) {
    if (!e.async) ++in_degree[static_cast<std::size_t>(e.to)];
  }
  for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
    if (topo.tenant_of[i] >= 0 && topo.depth[i] > 0) {
      EXPECT_GT(in_degree[i], 0) << topo.app.services[i].name;
    }
  }
  // Shared tiers draw heavy fan-in.
  EXPECT_GT(stats.shared_in_degree_max, 1);
}

TEST(TopoSynth, AsyncEdgesPointAtAncestorsWithTerminalBehaviour) {
  const Topology topo = synthesize(small_config());
  int async_edges = 0;
  for (const TopologyEdge& e : topo.edges) {
    if (!e.async) continue;
    ++async_edges;
    // The callback fires from a deep mid back up its own path: a cycle in
    // the service graph, but never at entry depth.
    EXPECT_GE(topo.depth[static_cast<std::size_t>(e.from)], 2);
    EXPECT_LT(topo.depth[static_cast<std::size_t>(e.to)],
              topo.depth[static_cast<std::size_t>(e.from)]);
    // The target must define an explicit terminal behaviour for the
    // callback class — the class-0 fallback would replay its downstream
    // calls and async edges (a livelock).
    const ServiceConfig& target =
        topo.app.services[static_cast<std::size_t>(e.to)];
    const auto it = target.classes.find(topo.callback_class);
    ASSERT_NE(it, target.classes.end()) << target.name;
    EXPECT_TRUE(it->second.call_groups.empty());
    EXPECT_TRUE(it->second.async_callbacks.empty());
    EXPECT_GT(it->second.request_demand.mean_us, 0.0);
  }
  EXPECT_GT(async_edges, 0);
}

TEST(TopoSynth, TenantMixesCoverClassesAndBatchPriority) {
  const Topology topo = synthesize(small_config());
  // The batch quarter of 3 tenants rounds down to none; of 4 it is the
  // trailing one.
  for (int t = 0; t < topo.config.tenants; ++t) {
    EXPECT_FALSE(topo.tenant_is_batch(t));
  }
  TopologyConfig cfg = small_config();
  cfg.tenants = 4;
  const Topology batchy = synthesize(cfg);
  EXPECT_FALSE(batchy.tenant_is_batch(0));
  EXPECT_FALSE(batchy.tenant_is_batch(1));
  EXPECT_FALSE(batchy.tenant_is_batch(2));
  EXPECT_TRUE(batchy.tenant_is_batch(3));

  const std::vector<int> classes = topo.tenant_classes(1);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], 2);
  EXPECT_EQ(classes[1], 3);
  RequestMix mix = batchy.tenant_mix(3);
  for (int cls : batchy.tenant_classes(3)) {
    EXPECT_EQ(mix.priority_of(cls), Priority::kBatch);
  }
  RequestMix high = batchy.tenant_mix(0);
  for (int cls : batchy.tenant_classes(0)) {
    EXPECT_EQ(high.priority_of(cls), Priority::kHigh);
  }
}

// The synthesized application must actually run end to end: requests fan
// through the mid tiers into the shared backends and complete, and async
// callbacks terminate (no livelock through the class-0 fallback).
TEST(TopoSynth, SynthesizedApplicationRuns) {
  TopologyConfig cfg = small_config();
  cfg.services = 60;
  const Topology topo = synthesize(cfg);
  ExperimentConfig ecfg;
  ecfg.duration = sec(10);
  ecfg.seed = 7;
  ecfg.sla = topo.config.request_sla;
  Experiment exp(topo.app, ecfg);
  for (int t = 0; t < cfg.tenants; ++t) {
    exp.open_loop(WorkloadTrace(TraceShape::kSlowlyVarying, sec(10), 20.0,
                                40.0),
                  topo.tenant_mix(t));
  }
  exp.run();
  const ExperimentSummary s = exp.summary();
  EXPECT_GT(s.injected, 100u);
  EXPECT_GT(s.completed, 0u);
  EXPECT_EQ(exp.app().in_flight() + exp.app().completed() + exp.app().shed(),
            exp.app().injected());
}

}  // namespace
}  // namespace sora::topo
