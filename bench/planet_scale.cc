// planet_scale: Sora vs HPA vs autothrottle on a synthesized 1000-service
// topology under a replayed flash-crowd cluster trace.
//
// The topology comes from src/topo (heavy-tailed fan-out, shared db/cache/
// blob tiers, async callback cycles, four tenants — one batch-priority);
// the workload replays a deterministic Alibaba-style CSV (diurnal baseline
// + flash-crowd spikes + interference overlay) through the exact thinning
// generator, one stream per tenant, composed with per-tenant priorities and
// front-door admission. Three legs race the same scenario under Sora soft
// adaptation, the K8s HPA and autothrottle, reporting goodput/p99 plus
// engine events/sec and the localizer's per-round overhead (wall ms and op
// count) — the scaling claim of DESIGN.md §14.
//
// Also run: a 5000-service localizer probe (no race) that measures
// analyze() wall time and op count per round at the paper's upper scale.
//
// Usage: planet_scale [--smoke] [--rate-scale X]
//   --smoke: CI mode — 500 services, 1 sim-minute; asserts a non-empty
//   decision log and the localizer-overhead ceiling; exits nonzero on any
//   violation.
//   --rate-scale X: override the replayed-rate multiplier (capacity tuning).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "topo/synth.h"
#include "workload/replay.h"

namespace sora::bench {
namespace {

using WallClock = std::chrono::steady_clock;

double elapsed_sec(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

struct ScenarioConfig {
  int services = 1000;
  SimTime duration = minutes(3);
  std::uint64_t seed = 42;
  double rate_scale = 1.0;
};

topo::Topology make_topology(int services) {
  topo::TopologyConfig tc;
  tc.seed = 1;
  tc.services = services;
  tc.tenants = 4;
  tc.entries_per_tenant = 2;
  tc.network_latency = usec(500);
  // Deeper fleets carry longer critical paths (a request walks its whole
  // tenant slice), so the quoted SLA widens with scale — otherwise the
  // baseline path eats the budget and no queueing headroom is left for the
  // controllers to fight over.
  tc.request_sla = msec(std::max(500, services));
  // A request executes its tenant's whole mid slice, so the critical path
  // grows linearly with the fleet; shrink per-hop work to match so the
  // request-level SLA means the same thing at every scale.
  tc.demand_scale = 500.0 / services;
  // Shared backends keep their generous default pools (128 threads in
  // front of 4-6 cores): the oversized-by-default soft resource the paper
  // starts from, and what Sora right-sizes down under the crowds.
  // Concentrate shared-tier popularity hard enough that the flash crowds
  // actually contend the hottest db instance (the Sora story), not just
  // the front door.
  tc.shared_zipf_s = 2.0;
  return topo::synthesize(tc);
}

std::string make_trace_csv(SimTime duration, double base_rps) {
  ReplaySynthesisConfig rc;
  rc.seed = 7;
  rc.tenants = 4;
  rc.duration_s = to_sec(duration);
  rc.step_s = 5.0;
  rc.base_rps = base_rps;
  rc.flash_crowds = 2;
  rc.flash_peak = 2.5;
  return synthesize_cluster_trace_csv(rc);
}

std::unique_ptr<Experiment> make_experiment(const topo::Topology& topo,
                                            const std::string& trace_csv,
                                            const ScenarioConfig& sc) {
  ExperimentConfig cfg;
  cfg.duration = sc.duration;
  cfg.seed = sc.seed;
  cfg.sla = topo.config.request_sla;
  auto exp = std::make_unique<Experiment>(topo.app, cfg);

  const ClusterTraceParse parsed = parse_cluster_trace_csv(trace_csv);
  if (!parsed.ok) {
    std::cerr << "planet_scale: trace parse failed: " << parsed.error << "\n";
    std::exit(1);
  }
  auto source =
      std::make_unique<ReplayWorkloadSource>(parsed.trace, sc.rate_scale);
  for (int t = 0; t < topo.config.tenants; ++t) {
    source->set_tenant_mix(static_cast<std::size_t>(t), topo.tenant_mix(t));
  }
  exp->set_workload_source(std::move(source));
  // Front-door admission on every entry (priority shedding under the flash
  // crowds; batch tenants go first). AIMD keyed to the SLA: a synthesized
  // deep tree has huge *natural* RTT spread, so relative policies
  // (gradient's long-RTT vs min-RTT test) throttle a healthy fleet; only
  // an SLA breach should count as congestion here.
  AdmissionOptions ao;
  ao.policy = AdmissionPolicy::kAimd;
  ao.aimd_latency_threshold = topo.config.request_sla;
  ao.initial_limit = 256.0;
  for (const auto& [cls, name] : topo.app.entry_service) {
    (void)cls;
    exp->enable_admission(name, ao);
  }
  return exp;
}

/// Shared-backend services (the contended soft-resource tier every
/// controller manages, so the race compares like against like).
std::vector<Service*> shared_backends(Experiment& exp,
                                      const topo::Topology& topo) {
  std::vector<Service*> out;
  for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
    if (topo.tenant_of[i] >= 0) continue;
    out.push_back(exp.app().service(topo.app.services[i].name));
  }
  return out;
}

struct LegResult {
  std::string controller;
  ExperimentSummary summary;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  std::size_t decisions = 0;
  // Sora leg only:
  double localizer_ms_per_round = 0.0;
  std::uint64_t localizer_rounds = 0;
  std::size_t localizer_round_ops = 0;
};

LegResult run_leg(const std::string& controller, const topo::Topology& topo,
                  const std::string& trace_csv, const ScenarioConfig& sc) {
  auto exp = make_experiment(topo, trace_csv, sc);
  // Equal hardware envelopes (the §5.2 pairing DESIGN.md §13 uses for the
  // tournament): the soft controllers (sora, autothrottle) ride a FIRM
  // vertical baseline over the same shared backends HPA scales, so the
  // race isolates what soft-resource adaptation adds — not who was handed
  // more cores.
  // Envelope: the synthesized db tier starts at 6 cores x 2 replicas; FIRM
  // may grow each replica to 12 cores (24 total) and HPA may double its
  // replica count (4 x 6 = 24 total) — same ceiling on the binding tier.
  const auto add_firm_baseline = [&]() -> FirmAutoscaler& {
    FirmOptions fo;
    fo.slo_latency = topo.config.request_sla;
    fo.min_cores = 4.0;
    fo.max_cores = 12.0;
    auto& firm = exp->add_firm(fo);
    for (Service* svc : shared_backends(*exp, topo)) firm.manage(svc);
    return firm;
  };
  SoraFramework* sora_fw = nullptr;
  if (controller == "sora") {
    SoraFrameworkOptions so;
    so.sla = topo.config.request_sla;
    // Top-k detail keeps the per-round report O(n log k) at thousands of
    // services; the verdict is identical to the full-sort path.
    so.localizer.top_k = 32;
    // Bound deadline propagation the same way: fold a deterministic sample
    // of the window instead of every ~500-hop trace, per knob, per round.
    so.deadline.max_traces = 512;
    auto& fw = exp->add_sora(so);
    for (Service* svc : shared_backends(*exp, topo)) {
      fw.manage(ResourceKnob::entry(svc));
    }
    Experiment::link(add_firm_baseline(), fw);
    sora_fw = &fw;
  } else if (controller == "firm") {
    add_firm_baseline();
  } else if (controller == "hpa") {
    HpaOptions ho;
    ho.max_replicas = 4;  // 4 x 6-core db replicas = the shared 24-core cap
    auto& hpa = exp->add_hpa(ho);
    for (Service* svc : shared_backends(*exp, topo)) hpa.manage(svc);
  } else if (controller == "autothrottle") {
    AutothrottleOptions ao;
    ao.budget = topo.config.request_sla;
    auto& at = exp->add_autothrottle(ao);
    // Autothrottle actuates through knee-coupled admission at the services
    // it manages (its fast throttlers publish concurrency caps via
    // set_knee) — without this its decisions never touch the fleet.
    AdmissionOptions knee;
    knee.policy = AdmissionPolicy::kKneeCoupled;
    for (Service* svc : shared_backends(*exp, topo)) {
      at.manage(svc);
      exp->enable_admission(svc->name(), knee);
    }
    add_firm_baseline();
  }

  const auto start = WallClock::now();
  exp->run();
  LegResult r;
  r.controller = controller;
  r.wall_sec = elapsed_sec(start);
  r.summary = exp->summary();
  r.events_per_sec =
      r.wall_sec > 0
          ? static_cast<double>(exp->sim().events_executed()) / r.wall_sec
          : 0.0;
  r.decisions = exp->decision_log().size();
  if (sora_fw != nullptr) {
    for (const obs::StageStats& s : r.summary.controller_overhead) {
      if (s.stage == "sora.localization") {
        r.localizer_rounds = s.calls;
        r.localizer_ms_per_round = s.mean_us() / 1000.0;
      }
    }
    r.localizer_round_ops = sora_fw->localizer().last_round_cost().total();
  }
  return r;
}

/// Localizer scale probe: a short run at `services`, then analyze() timed
/// standalone over repeated calls (it only reads the streamed state).
struct LocalizerProbe {
  int services = 0;
  double ms_per_round = 0.0;
  std::size_t round_ops = 0;
  std::size_t traces_folded = 0;
};

LocalizerProbe probe_localizer(int services, SimTime duration,
                               const ScenarioConfig& base) {
  const topo::Topology topo = make_topology(services);
  const std::string csv = make_trace_csv(duration, 40.0);
  ScenarioConfig sc = base;
  sc.duration = duration;
  // Deeper fleet, hotter shared tier: scale the replayed rate down with the
  // per-request cost so the probe's window actually completes traces.
  sc.rate_scale = 200.0 / services;
  auto exp = make_experiment(topo, csv, sc);
  CriticalServiceLocalizer localizer(exp->app(), exp->warehouse(),
                                     LocalizerOptions{.top_k = 32});
  exp->run();

  LocalizerProbe p;
  p.services = services;
  constexpr int kReps = 20;
  const auto start = WallClock::now();
  for (int i = 0; i < kReps; ++i) (void)localizer.analyze();
  p.ms_per_round = elapsed_sec(start) * 1000.0 / kReps;
  p.round_ops = localizer.last_round_cost().total();
  p.traces_folded = localizer.last_round_cost().traces_folded;
  return p;
}

int run(int argc, char** argv) {
  bool smoke = false;
  double rate_scale_override = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--rate-scale") == 0 && i + 1 < argc) {
      rate_scale_override = std::atof(argv[++i]);
    }
  }

  ScenarioConfig sc;
  sc.services = smoke ? 500 : 1000;
  sc.duration = smoke ? minutes(1) : minutes(3);
  // The synthesized graph is fully reachable: one request touches every mid
  // on its tenant's slice plus dozens of Zipf-hot shared-backend calls, so
  // aggregate capacity is bounded by the hottest db instance. The replayed
  // rates are scaled to sit just under that bound at steady state — the
  // flash crowds are what push the fleet into overload.
  sc.rate_scale = smoke ? 0.12 : 0.15;
  if (rate_scale_override > 0.0) sc.rate_scale = rate_scale_override;

  print_header("planet_scale: Sora vs HPA vs autothrottle",
               "Synthesized topology + replayed flash-crowd cluster trace");

  const topo::Topology topo = make_topology(sc.services);
  const topo::TopologyStats stats = topo.stats();
  std::cout << "topology: " << stats.services << " services ("
            << stats.entries << " entries, " << stats.mid_services
            << " mid, " << stats.shared_services << " shared), "
            << stats.sync_edges << " sync + " << stats.async_edges
            << " async edges, fanout p99 " << stats.fanout_p99
            << ", shared in-degree max " << stats.shared_in_degree_max
            << "\n";
  const std::string csv =
      make_trace_csv(sc.duration, smoke ? 60.0 : 120.0);
  std::cout << "trace: " << topo.config.tenants
            << " tenant columns, replayed over " << to_sec(sc.duration)
            << " s\n\n";

  bool ok = true;

  // ---- The race -------------------------------------------------------------
  std::vector<LegResult> legs;
  for (const char* controller : {"sora", "firm", "hpa", "autothrottle"}) {
    legs.push_back(run_leg(controller, topo, csv, sc));
    const LegResult& r = legs.back();
    std::cout << r.controller << ":\n"
              << "  goodput        : " << fmt(r.summary.goodput_rps, 1)
              << " rps (" << fmt(r.summary.good_fraction * 100.0, 1)
              << "% good)\n"
              << "  p99            : " << fmt(r.summary.p99_ms, 1) << " ms\n"
              << "  injected/shed  : " << r.summary.injected << " / "
              << r.summary.shed << "\n"
              << "  decisions      : " << r.decisions << "\n"
              << "  events/sec     : " << fmt(r.events_per_sec / 1e6, 2)
              << " M (wall " << fmt(r.wall_sec, 1) << " s)\n";
    if (r.controller == "sora") {
      std::cout << "  localizer      : " << fmt(r.localizer_ms_per_round, 3)
                << " ms/round over " << r.localizer_rounds << " rounds, "
                << r.localizer_round_ops << " ops/round\n";
    }
    if (r.decisions == 0) {
      std::cout << "  FAIL: empty decision log\n";
      ok = false;
    }
  }

  // ---- Localizer scale probe ------------------------------------------------
  const int probe_services = smoke ? 2000 : 5000;
  const LocalizerProbe probe =
      probe_localizer(probe_services, smoke ? sec(20) : sec(40), sc);
  std::cout << "\nlocalizer probe at " << probe.services << " services: "
            << fmt(probe.ms_per_round, 3) << " ms/round ("
            << probe.round_ops << " ops, " << probe.traces_folded
            << " traces folded)\n";
  // The DESIGN.md §14 ceiling: sub-millisecond per round at 5000 services
  // in release builds. The gate is deliberately looser (sanitizered or
  // loaded CI boxes) — the op-count guard in test_localizer_scale pins the
  // asymptotics; this catches gross wall-clock regressions.
  const double ceiling_ms = 10.0;
  if (probe.ms_per_round > ceiling_ms) {
    std::cout << "FAIL: localizer round " << fmt(probe.ms_per_round, 3)
              << " ms exceeds ceiling " << fmt(ceiling_ms, 1) << " ms\n";
    ok = false;
  }

  std::cout << (ok ? "\nPASS\n" : "\nFAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) { return sora::bench::run(argc, argv); }
