// Planet-scale topology synthesizer.
//
// Generates realistic 500-5000-service call graphs from a seeded
// TopologyConfig: per-tenant layered DAGs whose fan-out is drawn from a
// heavy-tailed (truncated power-law) distribution, shared backend tiers
// (db/cache/blob pools referenced by many frontends through Zipf
// popularity, producing heavy-tailed in-degree), multiple entry services
// per tenant (one request class per entry), and cross-service cycles
// expressed as async callback edges (svc/config.h AsyncCallback) back to
// an ancestor on the synchronous path. The output is a ready-to-run
// svc::ApplicationConfig plus an explicit edge list; the same
// config + seed always produces a byte-identical topology (single Rng,
// fixed draw order, no unordered containers). DESIGN.md §14.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "svc/config.h"
#include "workload/generator.h"

namespace sora::topo {

struct TopologyConfig {
  std::uint64_t seed = 1;
  /// Total service budget: entries + mid tiers + shared backends.
  int services = 1000;
  int tenants = 4;
  /// Entry (front-end) services per tenant; each is the entry of its own
  /// request class, so one tenant spreads over several front doors.
  int entries_per_tenant = 2;
  /// Shared backend tier sizes; 0 = auto-scale with the service count.
  int shared_db = 0;
  int shared_cache = 0;
  int shared_blob = 0;
  /// Maximum mid-tier depth below the entries (levels 1..max_depth).
  int max_depth = 6;
  /// Zipf exponent for shared-tier instance popularity (in-degree skew).
  double shared_zipf_s = 1.2;
  /// Fraction of deep mid services gaining an async callback edge to an
  /// ancestor on their own synchronous path (a directed cycle).
  double async_cycle_fraction = 0.04;
  SimTime network_latency = usec(500);
  SimTime request_sla = msec(500);
  /// Multiplier on every sampled CPU demand.
  double demand_scale = 1.0;
};

/// One call edge between synthesized services (indices into app.services).
struct TopologyEdge {
  int from = 0;
  int to = 0;
  bool async = false;
};

struct TopologyStats {
  int services = 0;
  int tenants = 0;
  int entries = 0;
  int mid_services = 0;
  int shared_services = 0;
  int sync_edges = 0;
  int async_edges = 0;
  /// Histogram over service depth: index = depth (entries at 0, shared
  /// backends one past the deepest mid level).
  std::vector<int> depth_histogram;
  /// Synchronous out-degree distribution.
  double fanout_mean = 0.0;
  int fanout_p99 = 0;
  int fanout_max = 0;
  /// Synchronous in-degree over the shared backends (tier popularity).
  double shared_in_degree_mean = 0.0;
  int shared_in_degree_max = 0;
};

/// A synthesized topology: the runnable application plus the graph-shaped
/// metadata the exporters, the stats dump and the replay workload need.
struct Topology {
  TopologyConfig config;
  ApplicationConfig app;
  std::vector<TopologyEdge> edges;
  /// Per service (index == ServiceId value): depth, owning tenant
  /// (-1 = shared backend tier).
  std::vector<int> depth;
  std::vector<int> tenant_of;
  std::vector<std::string> tenant_names;
  /// Request classes are tenant-major: tenant t entry e has class
  /// t * classes_per_tenant + e.
  int classes_per_tenant = 0;
  /// The request class async callbacks run under; every callback target
  /// defines an explicit terminal behaviour for it.
  int callback_class = 0;

  TopologyStats stats() const;
  /// Request classes owned by one tenant, ascending.
  std::vector<int> tenant_classes(int tenant) const;
  /// Evenly weighted mix over the tenant's classes; batch tenants (the
  /// trailing quarter, kBatchTenantFraction in synth.cc) carry
  /// Priority::kBatch on every class.
  RequestMix tenant_mix(int tenant) const;
  bool tenant_is_batch(int tenant) const;
};

/// Deterministically synthesize a topology. Throws std::invalid_argument
/// when the config is structurally impossible (service budget too small
/// for the tenant/tier layout, non-positive knobs).
Topology synthesize(const TopologyConfig& cfg);

}  // namespace sora::topo
