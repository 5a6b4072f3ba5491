#include "harness/experiment.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/log.h"

namespace sora {

namespace {
/// SORA_SEED environment override: returns `configured` unless the variable
/// is set to a parseable unsigned integer that fits in 64 bits.
std::uint64_t resolve_seed(std::uint64_t configured) {
  const char* env = std::getenv("SORA_SEED");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  // strtoull negates a leading '-' modulo 2^64 and saturates on overflow;
  // neither yields the seed that was asked for.
  if (end == env || *end != '\0' || std::strchr(env, '-') != nullptr ||
      errno == ERANGE) {
    SORA_WARN << "experiment: ignoring unparseable SORA_SEED=\"" << env << '"';
    return configured;
  }
  SORA_INFO << "experiment: seed " << parsed << " (SORA_SEED override of "
            << configured << ")";
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace

Experiment::Experiment(ApplicationConfig app_config, ExperimentConfig config)
    : config_(config), warehouse_(config.warehouse_capacity) {
  config_.seed = resolve_seed(config_.seed);
  warehouse_.attach(tracer_);
  // Deadline-aware admission needs requests to carry the end-to-end SLA;
  // stamp it as the default deadline unless the topology set its own.
  if (app_config.request_sla == 0) app_config.request_sla = config_.sla;
  app_ = std::make_unique<Application>(sim_, tracer_, std::move(app_config),
                                       config_.seed);
  // Traces that outlive their root (async callback edges) are reported by
  // whichever service closed last; the report rides the network back to
  // the collector — one wire hop — before the warehouse stores it.
  tracer_.set_deferred_delivery([this](Trace&& t) {
    app_->deliver([this, done = std::move(t)]() {
      tracer_.deliver_trace(done);
    });
  });
  recorder_ = std::make_unique<LatencyRecorder>(sim_, config_.sla,
                                                config_.timeline_bucket);
}

Experiment::~Experiment() = default;

OpenLoopGenerator& Experiment::open_loop(const WorkloadTrace& trace,
                                         RequestMix mix) {
  auto gen = std::make_unique<OpenLoopGenerator>(
      sim_, *app_, trace,
      config_.seed ^ (0x9d5ab1c2e3f40517ULL + open_loops_.size()));
  gen->set_mix(std::move(mix));
  gen->set_observer([this](SimTime, int, SimTime rt, bool ok) {
    recorder_->record(rt, ok);
    if (!ok && slo_monitor_ != nullptr) {
      slo_monitor_->record("e2e", sim_.now(), false);
    }
  });
  open_loops_.push_back(std::move(gen));
  return *open_loops_.back();
}

ClosedLoopGenerator& Experiment::closed_loop(int users, SimTime think_mean,
                                             RequestMix mix) {
  auto gen = std::make_unique<ClosedLoopGenerator>(
      sim_, *app_, users, think_mean,
      config_.seed ^ (0x5bd1e995a7c4f832ULL + closed_loops_.size()));
  gen->set_mix(std::move(mix));
  gen->set_observer([this](SimTime, int, SimTime rt, bool ok) {
    recorder_->record(rt, ok);
    if (!ok && slo_monitor_ != nullptr) {
      slo_monitor_->record("e2e", sim_.now(), false);
    }
  });
  closed_loops_.push_back(std::move(gen));
  return *closed_loops_.back();
}

WorkloadSource& Experiment::set_workload_source(
    std::unique_ptr<WorkloadSource> source) {
  source->bind(sim_, *app_,
               config_.seed ^ (0xa0761d6478bd642fULL + workload_sources_.size()),
               [this](SimTime, int, SimTime rt, bool ok) {
                 recorder_->record(rt, ok);
                 if (!ok && slo_monitor_ != nullptr) {
                   slo_monitor_->record("e2e", sim_.now(), false);
                 }
               });
  workload_sources_.push_back(std::move(source));
  return *workload_sources_.back();
}

SoraFramework& Experiment::add_sora(SoraFrameworkOptions options) {
  frameworks_.push_back(
      std::make_unique<SoraFramework>(*app_, warehouse_, options));
  frameworks_.back()->set_decision_log(&decision_log_);
  return *frameworks_.back();
}

HorizontalPodAutoscaler& Experiment::add_hpa(HpaOptions options) {
  auto hpa = std::make_unique<HorizontalPodAutoscaler>(sim_, *app_, options);
  auto* ptr = hpa.get();
  ptr->set_decision_log(&decision_log_);
  ptr->set_metrics(&app_->metrics());
  scalers_.push_back(std::move(hpa));
  return *ptr;
}

VerticalPodAutoscaler& Experiment::add_vpa(VpaOptions options) {
  auto vpa = std::make_unique<VerticalPodAutoscaler>(sim_, *app_, options);
  auto* ptr = vpa.get();
  ptr->set_decision_log(&decision_log_);
  ptr->set_metrics(&app_->metrics());
  scalers_.push_back(std::move(vpa));
  return *ptr;
}

FirmAutoscaler& Experiment::add_firm(FirmOptions options) {
  auto firm =
      std::make_unique<FirmAutoscaler>(sim_, *app_, warehouse_, options);
  auto* ptr = firm.get();
  ptr->set_decision_log(&decision_log_);
  ptr->set_metrics(&app_->metrics());
  scalers_.push_back(std::move(firm));
  return *ptr;
}

AutothrottleController& Experiment::add_autothrottle(
    AutothrottleOptions options) {
  auto at = std::make_unique<AutothrottleController>(*app_, warehouse_, options);
  auto* ptr = at.get();
  ptr->set_decision_log(&decision_log_);
  controllers_.push_back(std::move(at));
  return *ptr;
}

LsramController& Experiment::add_lsram(LsramOptions options) {
  auto ls = std::make_unique<LsramController>(*app_, warehouse_, options);
  auto* ptr = ls.get();
  ptr->set_decision_log(&decision_log_);
  controllers_.push_back(std::move(ls));
  return *ptr;
}

void Experiment::link(Autoscaler& scaler, SoraFramework& framework) {
  scaler.add_scale_listener([&framework](const ScaleEvent& ev) {
    framework.on_hardware_scaled(ev.service, ev.old_cores, ev.new_cores,
                                 ev.old_replicas, ev.new_replicas);
  });
}

void Experiment::track_service(const std::string& name,
                               std::string edge_target) {
  Service* svc = app_->service(name);
  if (svc == nullptr) {
    throw std::invalid_argument("track_service: unknown service " + name);
  }
  Tracked t;
  t.name = name;
  t.service = svc;
  t.edge_target = std::move(edge_target);
  t.busy_snapshot = svc->cpu_busy_integral();
  t.entry_snapshot = svc->entry_usage_integral();
  t.edge_snapshot =
      t.edge_target.empty() ? 0.0 : svc->edge_usage_integral(t.edge_target);
  t.last = sim_.now();
  tracked_.push_back(std::move(t));
}

const std::vector<ServiceTimelinePoint>& Experiment::timeline(
    const std::string& name) const {
  for (const Tracked& t : tracked_) {
    if (t.name == name) return t.points;
  }
  throw std::invalid_argument("timeline: service not tracked: " + name);
}

void Experiment::sample_tracked() {
  const SimTime now = sim_.now();
  for (Tracked& t : tracked_) {
    const SimTime dt = now - t.last;
    if (dt <= 0) continue;
    Service& svc = *t.service;

    ServiceTimelinePoint p;
    p.at = now;
    const double busy = svc.cpu_busy_integral();
    const int replicas = std::max(1, svc.active_replicas());
    // Pod-level view: utilization % of one core, averaged across replicas.
    p.util_pct = (busy - t.busy_snapshot) / static_cast<double>(dt) * 100.0 /
                 replicas;
    p.limit_pct = svc.cpu_limit() * 100.0;
    p.replicas = svc.active_replicas();
    p.entry_capacity = svc.entry_capacity();
    const double entry = svc.entry_usage_integral();
    p.entry_in_use = (entry - t.entry_snapshot) / static_cast<double>(dt);
    if (!t.edge_target.empty()) {
      p.edge_capacity = svc.edge_capacity(t.edge_target);
      const double edge = svc.edge_usage_integral(t.edge_target);
      p.edge_in_use = (edge - t.edge_snapshot) / static_cast<double>(dt);
      t.edge_snapshot = edge;
    }
    t.busy_snapshot = busy;
    t.entry_snapshot = entry;
    t.last = now;
    t.points.push_back(p);
  }
}

void Experiment::enable_metrics_sampling(SimTime period) {
  metrics_period_ = period;
}

void Experiment::enable_slo_analytics(SloAnalyticsOptions options) {
  if (slo_monitor_ != nullptr) return;
  slo_options_ = options;
  slo_monitor_ = std::make_unique<obs::SloMonitor>(options.monitor);
  slo_monitor_->set_decision_log(&decision_log_);
  attributor_ = std::make_unique<obs::BudgetAttributor>(
      config_.sla, options.attribution_window,
      [this](ServiceId id) { return app_->service_name(id); });

  warehouse_.add_store_listener([this](const Trace& t) {
    // Traces with a shed hop never produced an end-user response; the
    // generator observer already recorded the rejection against the e2e
    // SLO, and budget attribution over a rejected trace is meaningless.
    if (t.rejected()) return;
    const obs::TraceBudget budget = obs::attribute_budget(t, config_.sla);
    attributor_->on_budget(budget, t.end);
    slo_monitor_->record("e2e", t.end, budget.met_sla);
    // A hop is good when it stayed within its propagated budget — this is
    // the per-service SLO signal (a leaf can be "bad" even on requests that
    // squeaked in under the end-to-end SLA, and vice versa).
    for (const obs::HopBudget& hop : budget.hops) {
      slo_monitor_->record(app_->service_name(hop.service), t.end,
                           hop.slack >= 0);
    }
  });
}

void Experiment::enable_faults(FaultPlan plan) {
  fault_plan_ = std::move(plan);
}

void Experiment::enable_ctl(ctl::CtlOptions options) {
  ctl_options_ = options;
}

AdmissionController& Experiment::enable_admission(const std::string& service,
                                                  AdmissionOptions options) {
  Service* svc = app_->service(service);
  if (svc == nullptr) {
    throw std::invalid_argument("enable_admission: unknown service " + service);
  }
  auto controller = std::make_unique<AdmissionController>(service, options);
  controller->set_decision_log(&decision_log_);
  controller->set_metrics(&app_->metrics());
  AdmissionController* ptr = controller.get();
  svc->set_admission(std::move(controller));
  return *ptr;
}

void Experiment::start_all() {
  if (started_) return;
  started_ = true;
  for (auto& gen : open_loops_) gen->start();
  for (auto& gen : closed_loops_) gen->start();
  for (auto& src : workload_sources_) src->start();
  // Every control plane starts through the shared Controller contract, in
  // this order: frameworks first (preserving the historical same-timestamp
  // ordering between paired control planes), then hardware scalers, then
  // the bi-level/gradient controllers.
  std::vector<Controller*> controllers;
  for (auto& fw : frameworks_) controllers.push_back(fw.get());
  for (auto& sc : scalers_) controllers.push_back(sc.get());
  for (auto& c : controllers_) controllers.push_back(c.get());
  for (Controller* c : controllers) c->start();
  if (fault_plan_.has_value()) {
    // Built here, not in enable_faults(): the hooks must see every control
    // plane added to the experiment, whatever the call order was.
    FaultInjector::Hooks hooks;
    hooks.sim = &sim_;
    hooks.app = app_.get();
    hooks.tracer = &tracer_;
    hooks.log = &decision_log_;
    hooks.controllers = std::move(controllers);
    for (auto& fw : frameworks_) hooks.frameworks.push_back(fw.get());
    fault_injector_ = std::make_unique<FaultInjector>(
        std::move(*fault_plan_), std::move(hooks), config_.seed);
    fault_injector_->arm();
  }
  if (!ctl_options_.has_value()) {
    // Opt-in without a rebuild: SORA_CTL_PORT=<port> attaches the
    // introspection server to any harness-built binary.
    if (const char* env = std::getenv("SORA_CTL_PORT")) {
      char* end = nullptr;
      const long port = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && port >= 0 && port <= 65535) {
        ctl::CtlOptions opts;
        opts.port = static_cast<int>(port);
        ctl_options_ = opts;
      } else {
        SORA_WARN << "ignoring invalid SORA_CTL_PORT '" << env << "'";
      }
    }
  }
  if (ctl_options_.has_value()) {
    // Built here, like the fault injector: the snapshot hooks must see
    // every control plane, whatever the enable_* call order was.
    ctl::CtlPlane::Hooks hooks;
    hooks.sim = &sim_;
    hooks.app = app_.get();
    hooks.recorder = recorder_.get();
    hooks.decision_log = &decision_log_;
    hooks.slo_monitor = slo_monitor_.get();
    hooks.fault_injector = fault_injector_.get();
    for (auto& fw : frameworks_) hooks.frameworks.push_back(fw.get());
    ctl_plane_ =
        std::make_unique<ctl::CtlPlane>(*ctl_options_, std::move(hooks));
    ctl_plane_->start();
  }
  if (!tracked_.empty()) {
    track_tick_ = sim_.schedule_periodic(config_.timeline_bucket,
                                         [this] { sample_tracked(); });
  }
  if (metrics_period_ > 0) {
    app_->metrics().begin_window();
    metrics_tick_ = sim_.schedule_periodic(metrics_period_, [this] {
      app_->publish_metrics();
      metrics_snapshots_.push_back(app_->metrics().snapshot());
      app_->metrics().begin_window();
    });
  }
  if (slo_monitor_ != nullptr) {
    slo_tick_ = sim_.schedule_periodic(
        slo_options_.monitor.bucket,
        [this] { slo_monitor_->evaluate(sim_.now()); });
  }
}

void Experiment::run() {
  start_all();
  sim_.run_until(sim_.now() + config_.duration);
  if (slo_monitor_ != nullptr) {
    // Close the books: final burn evaluation, open episodes end with the
    // run, and the partial attribution window is flushed.
    slo_monitor_->evaluate(sim_.now());
    slo_monitor_->finish(sim_.now());
    attributor_->flush(sim_.now());
  }
  // Leave the final state on the board so dashboards attached after the
  // run (or between phased runs) see the end-of-run picture.
  if (ctl_plane_ != nullptr) ctl_plane_->publish_now(false);
}

void Experiment::run_until(SimTime t) {
  start_all();
  sim_.run_until(t);
}

ExperimentSummary Experiment::summary() const {
  ExperimentSummary s;
  s.injected = app_->injected();
  s.completed = app_->completed();
  s.shed = recorder_->shed();
  s.mean_ms = recorder_->mean_ms();
  s.p50_ms = recorder_->percentile_ms(50.0);
  s.p95_ms = recorder_->percentile_ms(95.0);
  s.p99_ms = recorder_->percentile_ms(99.0);
  s.goodput_rps = recorder_->average_goodput();
  const SimTime elapsed = sim_.now();
  s.throughput_rps =
      elapsed > 0 ? static_cast<double>(s.completed) / to_sec(elapsed) : 0.0;
  s.good_fraction = recorder_->good_fraction();
  s.slo_episodes =
      slo_monitor_ != nullptr ? slo_monitor_->episodes().size() : 0;
  s.controller_overhead = sim_.stages().stats();
  return s;
}

void Experiment::export_slo_report_text(std::ostream& os,
                                        const std::string& title) const {
  obs::SloReportInputs in;
  in.title = title;
  in.sla = config_.sla;
  in.latency = &recorder_->sketch();
  in.monitor = slo_monitor_.get();
  in.attribution = attributor_.get();
  in.decisions = &decision_log_;
  obs::write_slo_report_text(in, os);
}

void Experiment::export_slo_report_html(std::ostream& os,
                                        const std::string& title) const {
  obs::SloReportInputs in;
  in.title = title;
  in.sla = config_.sla;
  in.latency = &recorder_->sketch();
  in.monitor = slo_monitor_.get();
  in.attribution = attributor_.get();
  in.decisions = &decision_log_;
  obs::write_slo_report_html(in, os);
}

void Experiment::export_attribution_csv(std::ostream& os) const {
  if (attributor_ != nullptr) attributor_->write_csv(os);
}

void Experiment::export_burn_csv(const std::string& entity,
                                 std::ostream& os) const {
  if (slo_monitor_ != nullptr) slo_monitor_->burn_timeline(entity).write_csv(os);
}

std::size_t Experiment::export_chrome_trace(std::ostream& os,
                                            obs::ChromeTraceOptions options) const {
  return obs::export_chrome_trace(
      warehouse_,
      [this](ServiceId id) {
        const Service* svc = app_->service(id);
        return svc != nullptr ? svc->name()
                              : "service-" + std::to_string(id.value());
      },
      os, options);
}

obs::TimeSeriesSink Experiment::timeline_sink(const std::string& name) const {
  const std::vector<ServiceTimelinePoint>& points = timeline(name);
  obs::TimeSeriesSink sink(name,
                           {"util_pct", "limit_pct", "replicas",
                            "entry_capacity", "entry_in_use", "edge_capacity",
                            "edge_in_use"});
  for (const ServiceTimelinePoint& p : points) {
    const double row[] = {p.util_pct,
                          p.limit_pct,
                          static_cast<double>(p.replicas),
                          static_cast<double>(p.entry_capacity),
                          p.entry_in_use,
                          static_cast<double>(p.edge_capacity),
                          p.edge_in_use};
    sink.append(p.at, row);
  }
  return sink;
}

void Experiment::export_timelines_jsonl(std::ostream& os) const {
  for (const Tracked& t : tracked_) timeline_sink(t.name).write_jsonl(os);
}

void Experiment::export_timelines_csv(const std::string& name,
                                      std::ostream& os) const {
  timeline_sink(name).write_csv(os);
}

void Experiment::export_metrics_jsonl(std::ostream& os) {
  if (metrics_snapshots_.empty()) {
    app_->publish_metrics();
    obs::MetricsRegistry::write_jsonl(app_->metrics().snapshot(), os);
    return;
  }
  for (const obs::MetricsSnapshot& snap : metrics_snapshots_) {
    obs::MetricsRegistry::write_jsonl(snap, os);
  }
}

}  // namespace sora
