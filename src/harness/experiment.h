// Experiment harness.
//
// Wires a full run: simulator + tracer + warehouse + application + workload
// generators + (optionally) an autoscaler and a Sora/ConScale framework,
// plus per-second service timelines and client-side latency recording. All
// figure/table benches and the examples are built on this.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "admission/controller.h"
#include "autoscale/autothrottle.h"
#include "autoscale/firm.h"
#include "ctl/plane.h"
#include "autoscale/hpa.h"
#include "autoscale/lsram.h"
#include "autoscale/vpa.h"
#include "core/sora.h"
#include "fault/injector.h"
#include "metrics/latency_recorder.h"
#include "obs/budget.h"
#include "obs/chrome_trace.h"
#include "obs/decision_log.h"
#include "obs/profiler.h"
#include "obs/slo_monitor.h"
#include "obs/slo_report.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"
#include "svc/application.h"
#include "trace/tracer.h"
#include "trace/warehouse.h"
#include "workload/generator.h"

namespace sora {

/// Configuration of Experiment::enable_slo_analytics.
struct SloAnalyticsOptions {
  obs::SloMonitorOptions monitor;
  /// Attribution aggregation window (one row per service per window);
  /// aligned with the control period so attribution lines up with the
  /// decision log.
  SimTime attribution_window = sec(15);
};

struct ExperimentConfig {
  /// Base RNG seed. Overridable at runtime via the SORA_SEED environment
  /// variable (parsed as an unsigned integer; logged at construction), so
  /// a rebuilt binary is not needed to rerun an experiment under a
  /// different seed.
  std::uint64_t seed = 42;
  SimTime duration = minutes(12);
  /// End-to-end SLA used for client-side goodput reporting.
  SimTime sla = msec(400);
};

/// One per-bucket sample of a tracked service's state.
struct ServiceTimelinePoint {
  SimTime at = 0;
  double util_pct = 0.0;    ///< pod CPU utilization, % of one core (K8s style)
  double limit_pct = 0.0;   ///< per-pod CPU limit, % of one core
  int replicas = 0;
  int entry_capacity = 0;   ///< aggregate thread-pool size
  double entry_in_use = 0;  ///< time-averaged busy threads
  int edge_capacity = 0;    ///< aggregate connection-pool size (if tracked)
  double edge_in_use = 0;
};

struct ExperimentSummary {
  std::uint64_t injected = 0;
  std::uint64_t completed = 0;
  /// End-user requests rejected by admission control (client view: fast
  /// error responses). Excluded from the latency percentiles below.
  std::uint64_t shed = 0;
  double mean_ms = 0.0;
  /// Tail percentiles from the recorder's mergeable quantile sketch
  /// (relative error bounded by the sketch accuracy, default 1%).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_rps = 0.0;    ///< within SLA
  double throughput_rps = 0.0;
  double good_fraction = 0.0;
  /// SLO violation episodes detected by the monitor (0 when SLO analytics
  /// was not enabled).
  std::size_t slo_episodes = 0;
  /// Wall-clock cost of the profiled stages this experiment's simulation
  /// ran (its Simulator's own stage table, exact under concurrent sweeps);
  /// substantiates the paper's §6 overhead claim. Sim results are
  /// unaffected.
  std::vector<obs::StageStats> controller_overhead;
};

class Experiment {
 public:
  Experiment(ApplicationConfig app_config, ExperimentConfig config);
  ~Experiment();

  Simulator& sim() { return sim_; }
  Application& app() { return *app_; }
  Tracer& tracer() { return tracer_; }
  TraceWarehouse& warehouse() { return warehouse_; }
  LatencyRecorder& recorder() { return *recorder_; }
  const ExperimentConfig& config() const { return config_; }

  // -- workload ---------------------------------------------------------------

  OpenLoopGenerator& open_loop(const WorkloadTrace& trace, RequestMix mix = RequestMix(0));
  ClosedLoopGenerator& closed_loop(int users, SimTime think_mean,
                                   RequestMix mix = RequestMix(0));

  /// Attach a pluggable workload source (e.g. ReplayWorkloadSource). The
  /// source is bound immediately — simulator, application target, a seed
  /// salted from the experiment seed by attach order, and the same
  /// completion observer the built-in generators use — and started at
  /// start_all() alongside them. Additive: the built-in
  /// open_loop/closed_loop generators stay available and compose, as do
  /// enable_faults/enable_admission and SLO analytics. Returns the source
  /// for knob access; the experiment takes ownership.
  WorkloadSource& set_workload_source(std::unique_ptr<WorkloadSource> source);

  // -- control planes -----------------------------------------------------------

  SoraFramework& add_sora(SoraFrameworkOptions options = {});
  HorizontalPodAutoscaler& add_hpa(HpaOptions options = {});
  VerticalPodAutoscaler& add_vpa(VpaOptions options = {});
  FirmAutoscaler& add_firm(FirmOptions options = {});
  AutothrottleController& add_autothrottle(AutothrottleOptions options = {});
  LsramController& add_lsram(LsramOptions options = {});

  /// Forward a hardware scaler's kCores/kReplicas actions into a framework
  /// (Sora's Reallocation Module coordination): an action listener on
  /// `scaler` looks the action's target service up by name and calls
  /// SoraFramework::on_hardware_scaled. It runs inside the scaler's emit(),
  /// so the framework's "proportional" records land in the decision log
  /// ahead of the scaler's scale record.
  static void link(Controller& scaler, SoraFramework& framework);

  /// Frameworks added so far, in add order (the causal profiler reads the
  /// first framework's localization report for cross-validation).
  const std::vector<std::unique_ptr<SoraFramework>>& frameworks() const {
    return frameworks_;
  }

  // -- admission control ---------------------------------------------------------

  /// Install an admission controller on `service`, wired into this
  /// experiment's decision log and the application's metrics registry.
  /// Shed records land in decision_log(); shed/admit counters and the limit
  /// gauge in app().metrics(). Returns the controller for knob access.
  /// Call before the run; one controller per service (last call wins).
  AdmissionController& enable_admission(const std::string& service,
                                        AdmissionOptions options = {});

  // -- runtime introspection & control (ctl plane) ------------------------------

  /// Start the embedded introspection/control server (src/ctl) with the
  /// run: /metrics, /statusz, /logz, /decisions, and /ctl commands applied
  /// at safepoints. The plane is constructed and started at start_all(), so
  /// its snapshot hooks see every control plane added to the experiment.
  /// Also enabled automatically when the SORA_CTL_PORT environment variable
  /// is set (its value is the port). Call before the run; last call wins.
  void enable_ctl(ctl::CtlOptions options = {});
  /// The running plane; null before start_all() or when never enabled.
  ctl::CtlPlane* ctl_plane() { return ctl_plane_.get(); }

  // -- fault injection ----------------------------------------------------------

  /// Attach a deterministic fault plan. The injector is constructed and
  /// armed at start_all() — after every control plane was added — with RNG
  /// streams derived from the experiment seed, and records its events into
  /// this experiment's decision log. Call before the run; last plan wins.
  void enable_faults(FaultPlan plan);
  /// The armed injector (outcome counters); null before start_all() or when
  /// no plan was enabled.
  FaultInjector* fault_injector() { return fault_injector_.get(); }
  const FaultInjector* fault_injector() const { return fault_injector_.get(); }

  // -- timelines ----------------------------------------------------------------

  /// Track a service's per-bucket state; `edge_target` additionally tracks
  /// the connection pool toward that target.
  void track_service(const std::string& name, std::string edge_target = "");
  const std::vector<ServiceTimelinePoint>& timeline(
      const std::string& name) const;

  // -- telemetry ----------------------------------------------------------------

  /// The audit log every control plane added to this experiment records
  /// into (one record per decision point; exportable as JSONL).
  obs::DecisionLog& decision_log() { return decision_log_; }
  const obs::DecisionLog& decision_log() const { return decision_log_; }

  /// Publish application + simulator metrics and retain a windowed snapshot
  /// every `period` during the run. Call before the run starts.
  void enable_metrics_sampling(SimTime period);
  const std::vector<obs::MetricsSnapshot>& metrics_snapshots() const {
    return metrics_snapshots_;
  }

  // -- streaming SLO analytics --------------------------------------------------

  /// Turn on the streaming SLO layer. Call before the run starts. A
  /// warehouse store listener attributes each non-rejected trace's latency
  /// budget and feeds it to the burn-rate monitor and the per-service budget
  /// attributor; shed requests count against the e2e SLO through the
  /// completion observer. Episodes are appended to the decision log.
  void enable_slo_analytics(SloAnalyticsOptions options = {});
  bool slo_analytics_enabled() const { return slo_monitor_ != nullptr; }
  obs::SloMonitor& slo_monitor() { return *slo_monitor_; }
  const obs::SloMonitor& slo_monitor() const { return *slo_monitor_; }
  obs::BudgetAttributor& attribution() { return *attributor_; }
  const obs::BudgetAttributor& attribution() const { return *attributor_; }

  /// The stitched SLO report (percentiles + burn + episodes + attribution).
  /// Valid after (or during) a run with SLO analytics enabled.
  void export_slo_report_text(std::ostream& os, const std::string& title) const;
  void export_slo_report_html(std::ostream& os, const std::string& title) const;
  /// Per-service attribution windows as combined CSV.
  void export_attribution_csv(std::ostream& os) const;
  /// Burn-rate timeline of one SLO entity ("e2e" or a service name) as CSV.
  void export_burn_csv(const std::string& entity, std::ostream& os) const;

  /// One JSONL line per control decision, in append order.
  void export_decision_log(std::ostream& os) const {
    decision_log_.write_jsonl(os);
  }
  /// Chrome trace_event JSON of the warehouse's retained traces. Returns
  /// the number of traces exported.
  std::size_t export_chrome_trace(std::ostream& os,
                                  obs::ChromeTraceOptions options = {}) const;
  /// A tracked service's timeline as a TimeSeriesSink (CSV/JSONL export).
  obs::TimeSeriesSink timeline_sink(const std::string& name) const;
  /// One tracked service's timeline as CSV.
  void export_timelines_csv(const std::string& name, std::ostream& os) const;
  /// Collected metrics snapshots as JSONL (takes one now if sampling was
  /// never enabled).
  void export_metrics_jsonl(std::ostream& os);

  // -- run ------------------------------------------------------------------------

  /// Start everything added so far and run until `config.duration`.
  void run();
  /// Run until an absolute sim time (for phased experiments).
  void run_until(SimTime t);
  /// Start generators/frameworks/scalers without advancing time.
  void start_all();

  ExperimentSummary summary() const;

 private:
  struct Tracked {
    std::string name;
    Service* service;
    std::string edge_target;
    double busy_snapshot = 0.0;
    double entry_snapshot = 0.0;
    double edge_snapshot = 0.0;
    SimTime last = 0;
    std::vector<ServiceTimelinePoint> points;
  };

  void sample_tracked();
  /// Every generator's and workload source's completion observer: records
  /// the response time and counts a shed request against the e2e SLO.
  void record_completion(SimTime injected_at, int request_class, SimTime rt,
                         bool ok);

  ExperimentConfig config_;
  Simulator sim_;
  Tracer tracer_;
  TraceWarehouse warehouse_;
  std::unique_ptr<Application> app_;
  std::unique_ptr<LatencyRecorder> recorder_;

  std::vector<std::unique_ptr<OpenLoopGenerator>> open_loops_;
  std::vector<std::unique_ptr<ClosedLoopGenerator>> closed_loops_;
  std::vector<std::unique_ptr<WorkloadSource>> workload_sources_;
  std::vector<std::unique_ptr<SoraFramework>> frameworks_;
  std::vector<std::unique_ptr<Controller>> scalers_;
  std::vector<std::unique_ptr<Controller>> controllers_;

  std::vector<Tracked> tracked_;
  EventHandle track_tick_;
  bool started_ = false;

  std::optional<FaultPlan> fault_plan_;
  std::unique_ptr<FaultInjector> fault_injector_;

  obs::DecisionLog decision_log_;
  std::vector<obs::MetricsSnapshot> metrics_snapshots_;
  SimTime metrics_period_ = 0;
  EventHandle metrics_tick_;

  SloAnalyticsOptions slo_options_;
  std::unique_ptr<obs::SloMonitor> slo_monitor_;
  std::unique_ptr<obs::BudgetAttributor> attributor_;
  EventHandle slo_tick_;

  // Declared last: the plane's server thread reads state owned by the
  // members above, so it must be torn down first.
  std::optional<ctl::CtlOptions> ctl_options_;
  std::unique_ptr<ctl::CtlPlane> ctl_plane_;
};

}  // namespace sora
