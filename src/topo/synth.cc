#include "topo/synth.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "common/rng.h"

namespace sora::topo {

namespace {

/// Heavy-tailed fan-out. Each mid attaches to ONE parent in the level
/// above by preferential attachment; a parent's base attractiveness is
/// drawn from P(k) ∝ k^-alpha on k in [1, kFanoutMax] and grows with each
/// child it wins (Yule process), so out-degrees come out power-law
/// without multiplying per-request executions the way "sample k callees
/// per caller" wiring would.
constexpr double kFanoutAlpha = 2.2;
constexpr int kFanoutMax = 8;
/// Chance a mid gains a second parent (a cross-link). Each extra parent
/// multiplies the subtree's per-request executions, so this is kept
/// sparse: expected execution multiplicity ≈ (1 + p)^depth.
constexpr double kCrossLinkProb = 0.12;
/// Chance a multi-call hop issues its calls as one parallel group
/// (otherwise sequentially).
constexpr double kParallelProb = 0.5;
/// Chance a mid-tier service also calls into a shared backend tier.
constexpr double kSharedTierProb = 0.6;
// Pool sizing (per replica).
constexpr int kEntryPool = 64;         ///< entry services
constexpr int kMidEntryPool = 32;      ///< mid-tier services
constexpr int kSharedEntryPool = 128;  ///< shared backends
constexpr int kEdgePool = 32;  ///< caller connection pools toward shared dbs
/// Trailing fraction of tenants whose traffic runs at batch priority
/// (multi-tenant interference through the admission path).
constexpr double kBatchTenantFraction = 0.25;

/// Cumulative table for a discrete truncated power law P(k) ∝ k^-alpha,
/// k in [1, k_max]. Sampling walks the table: deterministic given the rng.
std::vector<double> power_law_cdf(double alpha, int k_max) {
  std::vector<double> cdf(static_cast<std::size_t>(k_max));
  double total = 0.0;
  for (int k = 1; k <= k_max; ++k) {
    total += std::pow(static_cast<double>(k), -alpha);
    cdf[static_cast<std::size_t>(k - 1)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Cumulative table for Zipf(s) popularity over `n` instances.
std::vector<double> zipf_cdf(double s, int n) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int i = 1; i <= n; ++i) {
    total += std::pow(static_cast<double>(i), -s);
    cdf[static_cast<std::size_t>(i - 1)] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int sample_cdf(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(it == cdf.end() ? cdf.size() - 1
                                          : it - cdf.begin());
}

/// Log-uniform draw in [lo, hi]: tiers span decades, so uniform-in-log
/// keeps both the cheap and the expensive end populated.
double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

std::string name_of(const char* fmt, int a, int b = -1, int c = -1) {
  char buf[64];
  if (c >= 0) {
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  } else if (b >= 0) {
    std::snprintf(buf, sizeof(buf), fmt, a, b);
  } else {
    std::snprintf(buf, sizeof(buf), fmt, a);
  }
  return buf;
}

}  // namespace

Topology synthesize(const TopologyConfig& cfg) {
  TopologyConfig c = cfg;
  if (c.tenants < 1 || c.entries_per_tenant < 1 || c.max_depth < 1 ||
      c.shared_zipf_s <= 0.0) {
    throw std::invalid_argument("topo: non-positive structural knob");
  }
  if (c.async_cycle_fraction < 0.0 || c.async_cycle_fraction > 1.0) {
    throw std::invalid_argument("topo: fraction knob outside [0, 1]");
  }
  if (c.shared_db == 0) c.shared_db = std::max(2, c.services / 100);
  if (c.shared_cache == 0) c.shared_cache = std::max(2, c.services / 80);
  if (c.shared_blob == 0) c.shared_blob = std::max(1, c.services / 250);

  const int entries = c.tenants * c.entries_per_tenant;
  const int shared_total = c.shared_db + c.shared_cache + c.shared_blob;
  const int mids_total = c.services - entries - shared_total;
  if (mids_total < c.tenants) {
    throw std::invalid_argument(
        "topo: service budget too small for tenants + shared tiers");
  }

  Rng rng(c.seed);
  Topology topo;
  topo.config = c;
  topo.classes_per_tenant = c.entries_per_tenant;
  topo.callback_class = c.tenants * c.entries_per_tenant;

  // ---- Layout: index every service before wiring any edge -------------------
  // Order: per tenant its entries then its mid levels (level-major), shared
  // backends last. ServiceId value == index in app.services.
  struct TenantLayout {
    std::vector<int> entry;                 // entry service indices
    std::vector<std::vector<int>> level;    // mid indices per level (1-based
                                            // depth; level[0] is depth 1)
  };
  std::vector<TenantLayout> tenants(static_cast<std::size_t>(c.tenants));
  std::vector<ServiceConfig>& svcs = topo.app.services;
  svcs.reserve(static_cast<std::size_t>(c.services));
  topo.depth.assign(static_cast<std::size_t>(c.services), 0);
  topo.tenant_of.assign(static_cast<std::size_t>(c.services), -1);

  int next = 0;
  int max_mid_depth = 0;
  for (int t = 0; t < c.tenants; ++t) {
    topo.tenant_names.push_back(name_of("tenant%d", t));
    TenantLayout& lay = tenants[static_cast<std::size_t>(t)];
    for (int e = 0; e < c.entries_per_tenant; ++e) {
      lay.entry.push_back(next);
      topo.tenant_of[static_cast<std::size_t>(next)] = t;
      svcs.push_back(ServiceConfig{});
      svcs.back().name = name_of("t%d_fe%d", t, e);
      ++next;
    }
    // Mid budget: even split, remainder to the first tenants.
    int budget = mids_total / c.tenants + (t < mids_total % c.tenants ? 1 : 0);
    // Geometric level-size decay: the first level is widest, deeper levels
    // shrink — the layered fan-in shape real tenant call graphs show.
    const double decay = rng.uniform(0.55, 0.8);
    const double denom =
        (1.0 - std::pow(decay, c.max_depth)) / (1.0 - decay);
    double want = static_cast<double>(budget) / denom;
    for (int l = 0; l < c.max_depth && budget > 0; ++l) {
      int sz = std::min(budget,
                        std::max(1, static_cast<int>(std::llround(want))));
      if (l == c.max_depth - 1) sz = budget;  // last chance: take the rest
      lay.level.emplace_back();
      for (int i = 0; i < sz; ++i) {
        lay.level.back().push_back(next);
        topo.depth[static_cast<std::size_t>(next)] = l + 1;
        topo.tenant_of[static_cast<std::size_t>(next)] = t;
        svcs.push_back(ServiceConfig{});
        svcs.back().name = name_of("t%d_l%d_s%d", t, l + 1, i);
        ++next;
      }
      budget -= sz;
      want *= decay;
    }
    max_mid_depth =
        std::max(max_mid_depth, static_cast<int>(lay.level.size()));
  }
  std::vector<int> db_idx, cache_idx, blob_idx;
  const int shared_depth = max_mid_depth + 1;
  const auto add_shared = [&](std::vector<int>& tier, const char* fmt,
                              int count) {
    for (int i = 0; i < count; ++i) {
      tier.push_back(next);
      topo.depth[static_cast<std::size_t>(next)] = shared_depth;
      svcs.push_back(ServiceConfig{});
      svcs.back().name = name_of(fmt, i);
      ++next;
    }
  };
  add_shared(db_idx, "db%d", c.shared_db);
  add_shared(cache_idx, "cache%d", c.shared_cache);
  add_shared(blob_idx, "blob%d", c.shared_blob);

  // ---- Edges ----------------------------------------------------------------
  const std::vector<double> fanout_cdf = power_law_cdf(kFanoutAlpha, kFanoutMax);
  const std::vector<double> db_zipf = zipf_cdf(c.shared_zipf_s, c.shared_db);
  const std::vector<double> cache_zipf =
      zipf_cdf(c.shared_zipf_s, c.shared_cache);
  const std::vector<double> blob_zipf =
      zipf_cdf(c.shared_zipf_s, c.shared_blob);
  // First structural parent of each mid — the ancestor chain async cycles
  // walk back up.
  std::vector<int> first_parent(static_cast<std::size_t>(c.services), -1);
  std::vector<int> sync_in_degree(static_cast<std::size_t>(c.services), 0);

  const auto add_sync_edge = [&](int from, int to) {
    topo.edges.push_back(TopologyEdge{from, to, false});
    ++sync_in_degree[static_cast<std::size_t>(to)];
    if (first_parent[static_cast<std::size_t>(to)] < 0) {
      first_parent[static_cast<std::size_t>(to)] = from;
    }
  };
  // Issue `targets` from `caller` under class key `cls`: one parallel group
  // or a sequential chain of singletons, coin-flipped per hop.
  const auto add_calls = [&](int caller, int cls, std::vector<int> targets) {
    if (targets.empty()) return;
    ClassBehavior& b = svcs[static_cast<std::size_t>(caller)].classes[cls];
    const bool parallel = targets.size() > 1 && rng.uniform() < kParallelProb;
    if (parallel) b.call_groups.emplace_back();
    for (int tgt : targets) {
      if (parallel) {
        b.call_groups.back().targets.push_back(
            svcs[static_cast<std::size_t>(tgt)].name);
      } else {
        b.call_groups.push_back(
            CallGroup{{svcs[static_cast<std::size_t>(tgt)].name}});
      }
      add_sync_edge(caller, tgt);
    }
  };
  // One shared-tier call: tier by fixed odds (db-heavy), instance by Zipf —
  // a handful of hot backends absorb most of the fan-in. Calls toward db
  // instances get a client connection pool (the soft resource under study).
  const auto add_shared_call = [&](int caller, int cls) {
    const double u = rng.uniform();
    const std::vector<int>* tier = &db_idx;
    const std::vector<double>* cdf = &db_zipf;
    if (u >= 0.5 && u < 0.8) {
      tier = &cache_idx;
      cdf = &cache_zipf;
    } else if (u >= 0.8) {
      tier = &blob_idx;
      cdf = &blob_zipf;
    }
    const int tgt = (*tier)[static_cast<std::size_t>(sample_cdf(*cdf, rng))];
    ClassBehavior& b = svcs[static_cast<std::size_t>(caller)].classes[cls];
    b.call_groups.push_back(
        CallGroup{{svcs[static_cast<std::size_t>(tgt)].name}});
    add_sync_edge(caller, tgt);
    if (tier == &db_idx) {
      svcs[static_cast<std::size_t>(caller)].with_edge_pool(
          svcs[static_cast<std::size_t>(tgt)].name, kEdgePool);
    }
  };

  // Call-tree wiring. Every request executes its service's full call list,
  // so each extra parent of a mid MULTIPLIES downstream executions — naive
  // "sample k callees per caller" graphs go exponential in depth and melt
  // the fleet. Instead each level is wired bottom-up by preferential
  // attachment: every mid picks exactly one parent in the level above
  // (weights = heavy-tailed base attractiveness + children accumulated so
  // far, the Yule process that yields power-law fan-out), plus a sparse
  // cross-link second parent at kCrossLinkProb. Reachability is guaranteed
  // by construction, fan-out is heavy-tailed, and per-request executions
  // stay ~O(mids per tenant · (1 + kCrossLinkProb)^depth).
  for (int t = 0; t < c.tenants; ++t) {
    const TenantLayout& lay = tenants[static_cast<std::size_t>(t)];
    const int levels = static_cast<int>(lay.level.size());
    // Entries: each level-1 mid is assigned one front door, uniformly;
    // the call runs under that entry's own request class.
    {
      std::vector<std::vector<int>> kids(lay.entry.size());
      for (int node : lay.level[0]) {
        const std::size_t e = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(lay.entry.size())));
        kids[e].push_back(node);
      }
      for (std::size_t e = 0; e < lay.entry.size(); ++e) {
        add_calls(lay.entry[e], t * c.entries_per_tenant + static_cast<int>(e),
                  kids[e]);
      }
    }
    for (int l = 0; l + 1 < levels; ++l) {
      const std::vector<int>& parents = lay.level[static_cast<std::size_t>(l)];
      // Slot sampling implements the attachment weights: parent i starts
      // with a heavy-tailed number of slots and gains one per child.
      std::vector<std::size_t> slots;
      for (std::size_t i = 0; i < parents.size(); ++i) {
        const int base = sample_cdf(fanout_cdf, rng) + 1;
        for (int s = 0; s < base; ++s) slots.push_back(i);
      }
      std::vector<std::vector<int>> kids(parents.size());
      for (int node : lay.level[static_cast<std::size_t>(l + 1)]) {
        const std::size_t p = slots[static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(slots.size())))];
        kids[p].push_back(node);
        slots.push_back(p);
        if (rng.uniform() < kCrossLinkProb) {
          const std::size_t q = slots[static_cast<std::size_t>(
              rng.uniform_int(static_cast<std::uint64_t>(slots.size())))];
          if (q != p) kids[q].push_back(node);
        }
      }
      for (std::size_t i = 0; i < parents.size(); ++i) {
        add_calls(parents[i], 0, kids[i]);
      }
      // Non-deepest mids hit a shared backend at kSharedTierProb.
      for (int caller : parents) {
        if (rng.uniform() < kSharedTierProb) add_shared_call(caller, 0);
      }
    }
    // The deepest level always bottoms out in at least one shared backend.
    for (int caller : lay.level[static_cast<std::size_t>(levels - 1)]) {
      add_shared_call(caller, 0);
      if (rng.uniform() < kSharedTierProb) add_shared_call(caller, 0);
    }
  }

  // ---- Async callback cycles ------------------------------------------------
  // Deep mids notify an ancestor on their own synchronous path (write-behind,
  // cache invalidation): a directed cycle, but expressed as a fire-and-forget
  // edge the response never waits on, so the request path stays a DAG.
  std::set<int> need_terminal;  // ordered: deterministic iteration
  for (int i = 0; i < c.services; ++i) {
    if (topo.depth[static_cast<std::size_t>(i)] < 2 ||
        topo.tenant_of[static_cast<std::size_t>(i)] < 0) {
      continue;
    }
    if (rng.uniform() >= c.async_cycle_fraction) continue;
    const int hops = 1 + static_cast<int>(rng.uniform_int(static_cast<
        std::uint64_t>(topo.depth[static_cast<std::size_t>(i)])));
    int ancestor = i;
    for (int h = 0; h < hops; ++h) {
      const int up = first_parent[static_cast<std::size_t>(ancestor)];
      if (up < 0) break;
      ancestor = up;
    }
    if (ancestor == i) continue;
    svcs[static_cast<std::size_t>(i)].with_async_callback(
        0, svcs[static_cast<std::size_t>(ancestor)].name, topo.callback_class,
        Priority::kBatch);
    topo.edges.push_back(TopologyEdge{i, ancestor, true});
    need_terminal.insert(ancestor);
  }

  // ---- Demands, cores, pools ------------------------------------------------
  const auto is_in = [](const std::vector<int>& v, int i) {
    return std::binary_search(v.begin(), v.end(), i);
  };
  for (int i = 0; i < c.services; ++i) {
    ServiceConfig& s = svcs[static_cast<std::size_t>(i)];
    const int tenant = topo.tenant_of[static_cast<std::size_t>(i)];
    const int depth = topo.depth[static_cast<std::size_t>(i)];
    if (tenant >= 0 && depth == 0) {
      // Entry tier: generous cores, replicated, big server-thread pool.
      const int cls = tenant * c.entries_per_tenant +
                      (i - tenants[static_cast<std::size_t>(tenant)].entry[0]);
      s.with_cores(4.0).with_replicas(2).with_entry_pool(kEntryPool);
      s.with_demand(cls, c.demand_scale * log_uniform(rng, 200.0, 500.0),
                    c.demand_scale * log_uniform(rng, 100.0, 300.0));
    } else if (tenant >= 0) {
      s.with_cores(2.0).with_entry_pool(kMidEntryPool);
      s.with_demand(0, c.demand_scale * log_uniform(rng, 300.0, 1500.0),
                    c.demand_scale * log_uniform(rng, 100.0, 400.0));
    } else if (is_in(db_idx, i)) {
      s.with_cores(6.0).with_replicas(2).with_entry_pool(kSharedEntryPool);
      s.with_demand(0, c.demand_scale * log_uniform(rng, 1000.0, 3000.0), 0.0);
    } else if (is_in(cache_idx, i)) {
      s.with_cores(4.0).with_replicas(2).with_entry_pool(kSharedEntryPool);
      s.with_demand(0, c.demand_scale * log_uniform(rng, 100.0, 300.0), 0.0);
    } else {
      s.with_cores(4.0).with_entry_pool(kSharedEntryPool);
      s.with_demand(0, c.demand_scale * log_uniform(rng, 2000.0, 6000.0), 0.0);
    }
  }
  // Every async-callback target gets an explicit terminal behaviour for the
  // callback class: without it the class-0 fallback would replay the
  // target's own downstream calls (and async edges — an infinite loop).
  for (int tgt : need_terminal) {
    svcs[static_cast<std::size_t>(tgt)].with_demand(
        topo.callback_class, c.demand_scale * log_uniform(rng, 100.0, 400.0),
        0.0);
  }

  // ---- Application-level wiring --------------------------------------------
  for (int t = 0; t < c.tenants; ++t) {
    for (int e = 0; e < c.entries_per_tenant; ++e) {
      const int cls = t * c.entries_per_tenant + e;
      topo.app.entry_service[cls] =
          svcs[static_cast<std::size_t>(
                   tenants[static_cast<std::size_t>(t)]
                       .entry[static_cast<std::size_t>(e)])]
              .name;
    }
  }
  topo.app.network_latency = c.network_latency;
  topo.app.request_sla = c.request_sla;
  return topo;
}

TopologyStats Topology::stats() const {
  TopologyStats s;
  s.services = static_cast<int>(app.services.size());
  s.tenants = config.tenants;
  int max_depth_seen = 0;
  for (int d : depth) max_depth_seen = std::max(max_depth_seen, d);
  s.depth_histogram.assign(static_cast<std::size_t>(max_depth_seen) + 1, 0);
  std::vector<int> out_degree(app.services.size(), 0);
  std::vector<int> shared_in(app.services.size(), 0);
  for (std::size_t i = 0; i < app.services.size(); ++i) {
    ++s.depth_histogram[static_cast<std::size_t>(depth[i])];
    if (tenant_of[i] < 0) {
      ++s.shared_services;
    } else if (depth[i] == 0) {
      ++s.entries;
    } else {
      ++s.mid_services;
    }
  }
  for (const TopologyEdge& e : edges) {
    if (e.async) {
      ++s.async_edges;
      continue;
    }
    ++s.sync_edges;
    ++out_degree[static_cast<std::size_t>(e.from)];
    if (tenant_of[static_cast<std::size_t>(e.to)] < 0) {
      ++shared_in[static_cast<std::size_t>(e.to)];
    }
  }
  std::vector<int> fan;
  for (std::size_t i = 0; i < app.services.size(); ++i) {
    if (tenant_of[i] >= 0) fan.push_back(out_degree[i]);
  }
  if (!fan.empty()) {
    std::sort(fan.begin(), fan.end());
    double sum = 0.0;
    for (int f : fan) sum += f;
    s.fanout_mean = sum / static_cast<double>(fan.size());
    s.fanout_p99 = fan[static_cast<std::size_t>(
        std::min<double>(static_cast<double>(fan.size()) - 1.0,
                         std::ceil(0.99 * static_cast<double>(fan.size())) -
                             1.0))];
    s.fanout_max = fan.back();
  }
  int shared_n = 0, shared_max = 0;
  double shared_sum = 0.0;
  for (std::size_t i = 0; i < app.services.size(); ++i) {
    if (tenant_of[i] >= 0) continue;
    ++shared_n;
    shared_sum += shared_in[i];
    shared_max = std::max(shared_max, shared_in[i]);
  }
  if (shared_n > 0) {
    s.shared_in_degree_mean = shared_sum / shared_n;
    s.shared_in_degree_max = shared_max;
  }
  return s;
}

std::vector<int> Topology::tenant_classes(int tenant) const {
  std::vector<int> out;
  for (int e = 0; e < classes_per_tenant; ++e) {
    out.push_back(tenant * classes_per_tenant + e);
  }
  return out;
}

bool Topology::tenant_is_batch(int tenant) const {
  const int batch = static_cast<int>(static_cast<double>(config.tenants) *
                                         kBatchTenantFraction +
                                     1e-9);
  return tenant >= config.tenants - batch;
}

RequestMix Topology::tenant_mix(int tenant) const {
  std::vector<std::pair<int, double>> weights;
  for (int cls : tenant_classes(tenant)) weights.emplace_back(cls, 1.0);
  RequestMix mix;
  mix.set_weights(std::move(weights));
  if (tenant_is_batch(tenant)) {
    for (int cls : tenant_classes(tenant)) {
      mix.with_priority(cls, Priority::kBatch);
    }
  }
  return mix;
}

}  // namespace sora::topo
