#include "ctl/plane.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>

#include "admission/controller.h"
#include "common/log.h"
#include "core/sora.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "metrics/latency_recorder.h"
#include "obs/decision_log.h"
#include "obs/slo_monitor.h"
#include "svc/application.h"
#include "svc/instance.h"
#include "svc/service.h"

namespace sora::ctl {

namespace {

/// Safepoint period. Commands apply, and snapshots publish, at this
/// granularity. The safepoint event itself never draws randomness and
/// never mutates state unless a command is pending, so enabling the plane
/// does not change simulation results.
constexpr SimTime kSafepointPeriod = sec(1);
/// Decision-log records retained in the snapshot for /decisions.
constexpr std::size_t kDecisionTailCap = 256;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

CtlPlane::CtlPlane(CtlOptions options, Hooks hooks)
    : options_(options), hooks_(std::move(hooks)) {}

CtlPlane::~CtlPlane() { stop(); }

void CtlPlane::start() {
  if (started_) return;
  started_ = true;
  tick_ = hooks_.sim->schedule_periodic(kSafepointPeriod,
                                        [this] { safepoint(); });
  if (options_.start_server) {
    server_ = std::make_unique<CtlServer>(ServerOptions{options_.port},
                                          board_, queue_);
    server_->start();  // bind failure already logged; plane stays headless
  }
}

void CtlPlane::stop() {
  if (server_ != nullptr) server_->stop();
  tick_.cancel();
}

void CtlPlane::set_script(std::vector<TimedCommand> script) {
  script_ = std::move(script);
  script_next_ = 0;
}

std::vector<TimedCommand> CtlPlane::commands_from_log(
    const obs::DecisionLog& log) {
  std::vector<TimedCommand> out;
  for (const obs::ControlDecisionRecord& rec : log.records()) {
    if (rec.controller != "ctl" || rec.command.empty()) continue;
    out.push_back(TimedCommand{rec.at, rec.command});
  }
  return out;
}

void CtlPlane::safepoint() {
  ++safepoints_;
  apply_pending();
  while (paused_) {
    if (server_ == nullptr || !server_->running()) {
      // Headless (or the bind failed): nothing can ever deliver a resume,
      // so a pause would hang the run. A scripted pause is normally undone
      // by a scripted resume at the same safepoint before we get here.
      SORA_WARN << "ctl: paused with no server attached; resuming";
      paused_ = false;
      break;
    }
    publish_on_demand(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (const std::string& cmd : queue_.drain()) apply_command(cmd);
  }
  publish_on_demand(false);
}

void CtlPlane::apply_pending() {
  for (const std::string& cmd : queue_.drain()) apply_command(cmd);
  const SimTime now = hooks_.sim->now();
  while (script_next_ < script_.size() && script_[script_next_].at <= now) {
    apply_command(script_[script_next_].text);
    ++script_next_;
  }
}

void CtlPlane::apply_command(const std::string& text) {
  const std::vector<std::string> tok = tokenize_command(text);
  if (tok.empty()) {
    record(text, "", "rejected", "empty command");
    return;
  }
  const SimTime now = hooks_.sim->now();

  if (tok[0] == "loglevel") {
    LogLevel level;
    if (tok.size() != 2 || !parse_log_level(tok[1], &level)) {
      record(text, "", "rejected", "usage: loglevel <debug|info|warn|error|off>");
      return;
    }
    set_log_level(level);
    record(text, "", "applied", "log level set to " + tok[1]);
    return;
  }

  if (tok[0] == "headroom" || tok[0] == "cap") {
    double value = 0.0;
    if (tok.size() != 3 || !parse_double(tok[2], &value) || value <= 0.0) {
      record(text, "", "rejected",
             "usage: " + tok[0] + " <service> <positive number>");
      return;
    }
    Service* svc = hooks_.app->service(tok[1]);
    if (svc == nullptr || svc->admission() == nullptr) {
      record(text, tok[1], "rejected",
             "no admission controller on service '" + tok[1] + "'");
      return;
    }
    if (tok[0] == "headroom") {
      svc->admission()->set_knee_headroom(value, now);
      record(text, tok[1], "applied", "knee headroom set to " + tok[2]);
    } else {
      svc->admission()->set_limit_bounds(0.0, value, now);
      record(text, tok[1], "applied", "admission max limit set to " + tok[2]);
    }
    return;
  }

  if (tok[0] == "fault") {
    if (tok.size() < 3 || tok[1] != "crash") {
      record(text, "", "rejected", "usage: fault crash <service> [downtime_sec]");
      return;
    }
    if (hooks_.fault_injector == nullptr) {
      record(text, tok[2], "rejected",
             "no fault injector armed (enable_faults before the run)");
      return;
    }
    double downtime = 30.0;
    if (tok.size() >= 4 && (!parse_double(tok[3], &downtime) || downtime < 0)) {
      record(text, tok[2], "rejected", "bad downtime '" + tok[3] + "'");
      return;
    }
    FaultEvent ev;
    ev.kind = FaultKind::kCrashInstance;
    ev.at = now;
    ev.service = tok[2];
    ev.duration = sec(downtime);
    // The injector appends its own "crash"/"crash_refused" record; this one
    // documents who asked.
    record(text, tok[2], "applied", "crash triggered");
    hooks_.fault_injector->trigger(ev);
    return;
  }

  if (tok[0] == "pause") {
    if (tok.size() != 1) {
      record(text, "", "rejected", "pause takes no arguments");
      return;
    }
    paused_ = true;
    record(text, "", "applied", "simulation paused (wall clock keeps going)");
    return;
  }

  if (tok[0] == "resume") {
    if (tok.size() != 1) {
      record(text, "", "rejected", "resume takes no arguments");
      return;
    }
    paused_ = false;
    record(text, "", "applied", "simulation resumed");
    return;
  }

  record(text, "", "rejected", "unknown command '" + tok[0] + "'");
}

void CtlPlane::record(const std::string& command, const std::string& target,
                      const char* action, std::string reason) {
  const bool applied = std::string_view(action) == "applied";
  if (applied) {
    ++commands_applied_;
    SORA_INFO << "ctl: applied '" << command << "' (" << reason << ")";
  } else {
    ++commands_rejected_;
    SORA_WARN << "ctl: rejected '" << command << "' (" << reason << ")";
  }
  if (hooks_.decision_log == nullptr) return;
  obs::ControlDecisionRecord rec;
  rec.at = hooks_.sim->now();
  rec.controller = "ctl";
  rec.round = safepoints_;
  rec.target = target;
  rec.action = action;
  rec.reason = std::move(reason);
  rec.command = command;
  hooks_.decision_log->append(std::move(rec));
}

void CtlPlane::publish_on_demand(bool force) {
  bool with_metrics = force;
  bool want = force;
  if (server_ != nullptr) {
    // Order matters: consuming metrics demand must also count as status
    // demand (a /metrics request wants the freshest registry state).
    if (server_->consume_metrics_demand()) {
      with_metrics = true;
      want = true;
    }
    if (server_->consume_status_demand()) want = true;
  }
  if (!want) return;
  board_.publish(assemble(with_metrics));
}

void CtlPlane::publish_now(bool with_metrics) {
  board_.publish(assemble(with_metrics));
}

StatusSnapshot CtlPlane::assemble(bool with_metrics) {
  StatusSnapshot snap;
  snap.sim_time = hooks_.sim->now();
  snap.paused = paused_;
  snap.log_level = std::string(log_level_name(log_level()));
  snap.events_executed = hooks_.sim->events_executed();
  snap.events_pending = hooks_.sim->events_pending();

  // Wall-rate between publishes; first publish reports 0.
  const std::uint64_t now_ns = wall_ns();
  if (rate_wall_ns_base_ != 0 && now_ns > rate_wall_ns_base_) {
    const double dt = static_cast<double>(now_ns - rate_wall_ns_base_) / 1e9;
    if (dt >= 0.01) {
      last_events_per_sec_ =
          static_cast<double>(snap.events_executed - rate_events_base_) / dt;
      rate_events_base_ = snap.events_executed;
      rate_wall_ns_base_ = now_ns;
    }
  } else {
    rate_events_base_ = snap.events_executed;
    rate_wall_ns_base_ = now_ns;
  }
  snap.events_per_sec = last_events_per_sec_;

  snap.injected = hooks_.app->injected();
  snap.completed = hooks_.app->completed();
  if (hooks_.recorder != nullptr) {
    snap.shed = hooks_.recorder->shed();
    if (hooks_.recorder->count() > 0) {
      snap.e2e_p99_ms = hooks_.recorder->percentile_ms(99.0);
    }
  }
  snap.commands_applied = commands_applied_;
  snap.commands_rejected = commands_rejected_;

  // Last-good knee per service from the soft-resource frameworks (entry
  // knobs win over edge knobs when both are managed).
  std::map<std::string, double> knees;
  for (SoraFramework* fw : hooks_.frameworks) {
    if (fw == nullptr) continue;
    for (const SoraFramework::KnobKnee& k : fw->current_knees()) {
      if (k.service.empty()) continue;
      const bool entry = k.label == k.service + "/threads";
      if (entry || knees.find(k.service) == knees.end()) {
        knees[k.service] = k.knee_concurrency;
      }
    }
  }

  obs::MetricsRegistry& metrics = hooks_.app->metrics();
  for (const auto& svc_ptr : hooks_.app->services()) {
    const Service& svc = *svc_ptr;
    ServiceStatus s;
    s.name = svc.name();
    s.replicas = svc.active_replicas();
    s.cpu_limit_cores = svc.cpu_limit();
    s.threads_capacity = svc.entry_capacity();
    s.threads_in_use = svc.entry_in_use();
    for (std::size_t i = 0; i < svc.total_replicas(); ++i) {
      const ServiceInstance& inst = svc.instance(i);
      if (inst.active()) {
        s.queue_depth += static_cast<int>(inst.entry_pool().waiting());
      }
    }
    s.completions = svc.completions();
    if (const obs::HistogramMetric* h = metrics.find_histogram(
            "rpc.latency_us", {{"service", svc.name()}})) {
      if (h->count() > 0) s.p99_ms = h->percentile(99.0) / 1000.0;
    }
    const auto knee_it = knees.find(svc.name());
    if (knee_it != knees.end()) s.knee = knee_it->second;
    if (const AdmissionController* adm = svc.admission()) {
      s.has_admission = true;
      s.admission_policy = to_string(adm->policy());
      s.admission_limit = adm->current_limit();
      s.admission_in_flight = adm->in_flight();
      s.admitted = adm->admitted();
      s.shed = adm->shed();
      s.admission_knee = adm->knee();
    }
    snap.services.push_back(std::move(s));
  }

  if (hooks_.slo_monitor != nullptr) {
    snap.episodes_total = hooks_.slo_monitor->episodes().size();
    for (const obs::ViolationEpisode& ep : hooks_.slo_monitor->episodes()) {
      if (!ep.open) continue;
      EpisodeStatus e;
      e.entity = ep.entity;
      e.start = ep.start;
      e.peak_fast_burn = ep.peak_fast_burn;
      snap.active_episodes.push_back(std::move(e));
    }
  }

  if (hooks_.fault_injector != nullptr) {
    const FaultInjector& inj = *hooks_.fault_injector;
    snap.faults.armed = inj.armed();
    snap.faults.events_fired = inj.events_fired();
    snap.faults.crashes = inj.crashes();
    snap.faults.restarts = inj.restarts();
    snap.faults.cpu_steps = inj.cpu_steps();
    snap.faults.stalls = inj.stalls();
  }

  if (hooks_.decision_log != nullptr) {
    const auto& records = hooks_.decision_log->records();
    snap.decisions_total = records.size();
    const std::size_t tail = std::min(records.size(), kDecisionTailCap);
    snap.decision_tail.reserve(tail);
    for (std::size_t i = records.size() - tail; i < records.size(); ++i) {
      snap.decision_tail.push_back(records[i].to_json());
    }
  }

  if (with_metrics) {
    // Refresh the gauges services only push on publish, then snapshot the
    // whole registry (the expensive part: sketch percentile queries per
    // histogram — which is why it is gated on /metrics demand).
    hooks_.app->publish_metrics();
    snap.metrics = metrics.snapshot();
    snap.has_metrics = true;
  }
  return snap;
}

}  // namespace sora::ctl
