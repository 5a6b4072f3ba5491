#include "workloads.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "apps/sock_shop.h"
#include "topo/synth.h"
#include "workload/replay.h"

namespace perfbench {

using namespace sora;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// SpanLog

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_us = seconds_since(origin_) * 1e6;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_us = seconds_since(origin_) * 1e6;
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

TimedScope::TimedScope(SpanLog* log, const char* name, int parent)
    : log_(log), start_(Clock::now()) {
  if (log_ != nullptr) span_ = log_->begin(name, parent);
}

TimedScope::~TimedScope() {
  if (log_ != nullptr) log_->end(span_);
}

// ---------------------------------------------------------------------------
// Workloads

namespace {

constexpr int kPlanetServices = 1000;
constexpr double kPlanetRateScale = 0.15;
constexpr double kPlanetBaseRps = 120.0;

/// fig10: Steep Tri Phase 600 -> 2400 users, 1 s think, 6 sim-min, SLA
/// 400 ms, cart pre-profiled at 2 cores / 5 threads, FIRM up to 4 cores.
Workload build_cart(bool with_sora, std::uint64_t seed, SimTime duration,
                    SpanLog* spans, int parent) {
  constexpr double kBaseUsers = 600;
  constexpr double kPeakUsers = 2400;
  constexpr double kInitialCores = 2.0;
  const SimTime sla = msec(400);

  Workload w;
  const Clock::time_point start = Clock::now();
  {
    TimedScope build(spans, "setup.build", parent);
    sock_shop::Params params;
    params.cart_cores = kInitialCores;
    params.cart_threads = 5;
    ExperimentConfig ecfg;
    ecfg.duration = duration > 0 ? duration : minutes(6);
    ecfg.sla = sla;
    ecfg.seed = seed;
    w.exp = std::make_unique<Experiment>(sock_shop::make_sock_shop(params),
                                         ecfg);
    Experiment& exp = *w.exp;

    const WorkloadTrace trace(TraceShape::kSteepTriPhase, ecfg.duration,
                              kBaseUsers, kPeakUsers);
    auto& users = exp.closed_loop(static_cast<int>(kBaseUsers), sec(1),
                                  RequestMix(sock_shop::kBrowse));
    users.follow_trace(trace);

    FirmOptions fo;
    fo.slo_latency = sla;
    fo.min_cores = kInitialCores;
    fo.max_cores = 4.0;
    auto& firm = exp.add_firm(fo);
    Service* cart = exp.app().service("cart");
    firm.manage(cart);
    if (with_sora) {
      SoraFrameworkOptions so;
      so.sla = sla;
      auto& fw = exp.add_sora(so);
      fw.manage(ResourceKnob::entry(cart));
      Experiment::link(firm, fw);
      w.sora = &fw;
    }
    exp.track_service("cart");
    exp.start_all();
    w.setup.build_ms = build.elapsed_s() * 1e3;
    w.fallback_target = cart->id();
  }
  w.sla = sla;
  w.deadline_window = w.sora != nullptr
                          ? w.sora->options().estimator.window
                          : EstimatorOptions{}.window;
  if (w.sora != nullptr) w.deadline = w.sora->options().deadline;
  w.setup.total_s = seconds_since(start);
  return w;
}

/// planet_scale's topology (bench/planet_scale.cc make_topology).
topo::Topology make_topology() {
  topo::TopologyConfig tc;
  tc.seed = 1;
  tc.services = kPlanetServices;
  tc.tenants = 4;
  tc.entries_per_tenant = 2;
  tc.network_latency = usec(500);
  tc.request_sla = msec(std::max(500, kPlanetServices));
  tc.demand_scale = 500.0 / kPlanetServices;
  tc.shared_zipf_s = 2.0;
  return topo::synthesize(tc);
}

/// planet_scale's sora leg: Sora (top-k localizer, 512-trace deadline
/// sampling) linked to a FIRM baseline over the shared backends, AIMD
/// admission at every entry, a replayed flash-crowd CSV.
Workload build_planet(std::uint64_t seed, SimTime duration, SpanLog* spans,
                      int parent) {
  Workload w;
  const Clock::time_point start = Clock::now();

  std::unique_ptr<topo::Topology> topology;
  {
    TimedScope s(spans, "setup.topo_synthesize", parent);
    topology = std::make_unique<topo::Topology>(make_topology());
    w.setup.topo_ms = s.elapsed_s() * 1e3;
  }
  const topo::Topology& tp = *topology;

  ExperimentConfig cfg;
  cfg.duration = duration > 0 ? duration : minutes(3);
  cfg.seed = seed;
  cfg.sla = tp.config.request_sla;

  ClusterTrace cluster;
  {
    TimedScope s(spans, "setup.replay_csv", parent);
    ReplaySynthesisConfig rc;
    rc.seed = 7;
    rc.tenants = 4;
    // The CSV always covers the full 3 sim-min, so a shortened test run
    // replays a prefix of the same rate curve.
    rc.duration_s = to_sec(minutes(3));
    rc.step_s = 5.0;
    rc.base_rps = kPlanetBaseRps;
    rc.flash_crowds = 2;
    rc.flash_peak = 2.5;
    const std::string csv = synthesize_cluster_trace_csv(rc);
    ClusterTraceParse parsed = parse_cluster_trace_csv(csv);
    if (!parsed.ok) {
      throw std::runtime_error("trace CSV parse failed: " + parsed.error);
    }
    cluster = std::move(parsed.trace);
    w.setup.replay_ms = s.elapsed_s() * 1e3;
  }

  {
    TimedScope build(spans, "setup.build", parent);
    w.exp = std::make_unique<Experiment>(tp.app, cfg);
    Experiment& exp = *w.exp;
    auto source =
        std::make_unique<ReplayWorkloadSource>(std::move(cluster),
                                               kPlanetRateScale);
    for (int t = 0; t < tp.config.tenants; ++t) {
      source->set_tenant_mix(static_cast<std::size_t>(t), tp.tenant_mix(t));
    }
    exp.set_workload_source(std::move(source));

    AdmissionOptions ao;
    ao.policy = AdmissionPolicy::kAimd;
    ao.aimd_latency_threshold = tp.config.request_sla;
    ao.initial_limit = 256.0;
    for (const auto& [cls, name] : tp.app.entry_service) {
      (void)cls;
      exp.enable_admission(name, ao);
    }

    std::vector<Service*> shared;
    for (std::size_t i = 0; i < tp.app.services.size(); ++i) {
      if (tp.tenant_of[i] >= 0) continue;
      shared.push_back(exp.app().service(tp.app.services[i].name));
    }

    SoraFrameworkOptions so;
    so.sla = tp.config.request_sla;
    so.localizer.top_k = 32;
    so.deadline.max_traces = 512;
    auto& fw = exp.add_sora(so);
    for (Service* svc : shared) fw.manage(ResourceKnob::entry(svc));
    FirmOptions fo;
    fo.slo_latency = tp.config.request_sla;
    fo.min_cores = 4.0;
    fo.max_cores = 12.0;
    auto& firm = exp.add_firm(fo);
    for (Service* svc : shared) firm.manage(svc);
    Experiment::link(firm, fw);
    w.sora = &fw;
    w.fallback_target = shared.front()->id();
    exp.start_all();
    w.setup.build_ms = build.elapsed_s() * 1e3;
  }
  w.sla = cfg.sla;
  w.deadline = w.sora->options().deadline;
  w.deadline_window = w.sora->options().estimator.window;
  topology.reset();
  w.setup.total_s = seconds_since(start);
  return w;
}

std::string fmt17(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "cart_firm" || name == "cart_sora" || name == "planet_sora";
}

Workload build_workload(const std::string& name, std::uint64_t seed,
                        SimTime sim_duration, SpanLog* spans, int parent) {
  if (name == "cart_firm") {
    return build_cart(false, seed, sim_duration, spans, parent);
  }
  if (name == "cart_sora") {
    return build_cart(true, seed, sim_duration, spans, parent);
  }
  if (name == "planet_sora") {
    return build_planet(seed, sim_duration, spans, parent);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Field> fingerprint(Experiment& exp) {
  const ExperimentSummary s = exp.summary();
  std::ostringstream log;
  exp.export_decision_log(log);
  const std::string decisions = log.str();
  return {
      {"summary.injected", std::to_string(s.injected)},
      {"summary.completed", std::to_string(s.completed)},
      {"summary.shed", std::to_string(s.shed)},
      {"summary.mean_ms", fmt17(s.mean_ms)},
      {"summary.p50_ms", fmt17(s.p50_ms)},
      {"summary.p95_ms", fmt17(s.p95_ms)},
      {"summary.p99_ms", fmt17(s.p99_ms)},
      {"summary.goodput_rps", fmt17(s.goodput_rps)},
      {"summary.throughput_rps", fmt17(s.throughput_rps)},
      {"summary.good_fraction", fmt17(s.good_fraction)},
      {"sim.events", std::to_string(exp.sim().events_executed())},
      {"warehouse.stored", std::to_string(exp.warehouse().total_stored())},
      {"warehouse.digest", std::to_string(exp.warehouse().digest())},
      {"decisions.count", std::to_string(exp.decision_log().size())},
      {"decisions.fnv1a", std::to_string(fnv1a(decisions))},
  };
}

}  // namespace perfbench
