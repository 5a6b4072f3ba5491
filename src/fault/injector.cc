#include "fault/injector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "autoscale/controller.h"
#include "common/log.h"
#include "core/estimator.h"
#include "core/sora.h"
#include "metrics/scatter_sampler.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "svc/application.h"
#include "svc/service.h"
#include "trace/tracer.h"

namespace sora {

FaultInjector::FaultInjector(FaultPlan plan, Hooks hooks, std::uint64_t seed)
    : plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      // Streams forked per concern: span coin flips never shift scatter
      // coin flips, whatever windows overlap.
      rng_spans_(seed ^ 0x6a09e667f3bcc908ULL),
      rng_scatter_(seed ^ 0xbb67ae8584caa73bULL) {}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;

  // The telemetry paths are gated permanently; the gates are free
  // passthroughs outside active windows.
  hooks_.tracer->set_span_interceptor(
      [this](const Span&) { return admit_span(); });
  for (SoraFramework* fw : hooks_.frameworks) {
    for (const ResourceKnob& knob : fw->estimator().knobs()) {
      if (ScatterSampler* sampler = fw->estimator().sampler(knob)) {
        sampler->set_bucket_filter(
            [this](const SamplePoint&) { return admit_scatter_bucket(); });
      }
    }
  }

  const SimTime now = hooks_.sim->now();
  for (const FaultEvent& ev : plan_.events()) {
    hooks_.sim->post_at(std::max(ev.at, now), [this, ev] { fire(ev); });
  }
}

void FaultInjector::trigger(const FaultEvent& ev) { fire(ev); }

void FaultInjector::fire(const FaultEvent& ev) {
  ++events_fired_;
  count_event(ev.kind);
  switch (ev.kind) {
    case FaultKind::kCrashInstance:
      fire_crash(ev);
      break;
    case FaultKind::kCpuLimitStep:
      fire_cpu_step(ev);
      break;
    case FaultKind::kSpanDropout:
      fire_span_window(ev);
      break;
    case FaultKind::kScatterDropout:
      fire_scatter_window(ev);
      break;
    case FaultKind::kControlStall:
      fire_stall(ev);
      break;
  }
}

void FaultInjector::fire_crash(const FaultEvent& ev) {
  Service* svc = hooks_.app->service(ev.service);
  if (svc == nullptr) {
    ++crashes_refused_;
    record(ev, "crash_refused", ev.service, "unknown service");
    return;
  }
  const int before = svc->active_replicas();
  const std::size_t n = svc->total_replicas();
  // Crash the first active replica at or after the preferred index: the
  // plan does not need to know what the autoscaler did to the replica set.
  std::size_t chosen = n == 0 ? 0 : ev.instance % n;
  bool ok = false;
  for (std::size_t k = 0; k < n && !ok; ++k) {
    const std::size_t idx = (ev.instance + k) % n;
    if (svc->instance(idx).active() &&
        svc->crash_replica(idx, ev.drop_inflight)) {
      chosen = idx;
      ok = true;
    }
  }
  if (!ok) {
    ++crashes_refused_;
    record(ev, "crash_refused", svc->name(),
           "refused: would take down the last active replica", 0.0, 0.0,
           before, before);
    return;
  }

  ++crashes_;
  record(ev, "crash", svc->name(),
         std::string(ev.drop_inflight ? "replica crashed, in-flight dropped"
                                      : "replica crashed, draining") +
             " (replica " + std::to_string(chosen) + ")",
         0.0, 0.0, before, svc->active_replicas());
  for (Controller* c : hooks_.controllers) {
    c->on_topology_changed(svc, "instance crash");
  }
  SORA_INFO << "fault: crashed " << svc->name() << "[" << chosen << "]";

  if (ev.duration > 0) {
    hooks_.sim->post_after(ev.duration, [this, ev, svc, chosen] {
      const int was = svc->active_replicas();
      if (!svc->restore_replica(chosen)) return;  // autoscaler revived it
      ++restarts_;
      record(ev, "restart", svc->name(),
             "replica " + std::to_string(chosen) + " restarted after " +
                 std::to_string(to_sec(ev.duration)) + "s downtime",
             0.0, 0.0, was, svc->active_replicas());
      for (Controller* c : hooks_.controllers) {
        c->on_topology_changed(svc, "instance restart");
      }
      SORA_INFO << "fault: restored " << svc->name() << "[" << chosen << "]";
    });
  }
}

void FaultInjector::fire_cpu_step(const FaultEvent& ev) {
  Service* svc = hooks_.app->service(ev.service);
  if (svc == nullptr) {
    record(ev, "cpu_step_refused", ev.service, "unknown service");
    return;
  }
  const double old_cores = svc->cpu_limit();
  svc->set_cpu_limit(ev.cores);
  ++cpu_steps_;
  // Deliberately NOT announced via on_hardware_scaled: this models external
  // CPU churn (noisy neighbor, node pressure) that the controllers must
  // discover through their own telemetry.
  record(ev, "cpu_step", svc->name(),
         "per-replica CPU limit stepped externally (unannounced)", old_cores,
         ev.cores);
}

void FaultInjector::fire_span_window(const FaultEvent& ev) {
  ++span_drop_depth_;
  span_drop_fraction_ = ev.fraction;
  record(ev, "fault_start", "",
         std::to_string(static_cast<int>(ev.fraction * 100.0)) +
             "% of span reports dropped");
  if (ev.duration > 0) {
    hooks_.sim->post_after(ev.duration, [this, ev] {
      --span_drop_depth_;
      record(ev, "fault_end", "", "span telemetry window ended");
    });
  }
}

void FaultInjector::fire_scatter_window(const FaultEvent& ev) {
  ++scatter_drop_depth_;
  scatter_drop_fraction_ = ev.fraction;
  record(ev, "fault_start", "",
         std::to_string(static_cast<int>(ev.fraction * 100.0)) +
             "% of scatter sample buckets dropped");
  if (ev.duration > 0) {
    hooks_.sim->post_after(ev.duration, [this, ev] {
      --scatter_drop_depth_;
      record(ev, "fault_end", "", "scatter dropout window ended");
    });
  }
}

void FaultInjector::fire_stall(const FaultEvent& ev) {
  ++stalls_;
  set_stall(true);
  record(ev, "fault_start", "", "control planes stalled");
  if (ev.duration > 0) {
    hooks_.sim->post_after(ev.duration, [this, ev] {
      set_stall(false);
      record(ev, "fault_end", "", "control planes resumed");
    });
  }
}

void FaultInjector::set_stall(bool on) {
  stall_depth_ += on ? 1 : -1;
  const bool stalled = stall_depth_ > 0;
  for (Controller* c : hooks_.controllers) c->set_stalled(stalled);
}

bool FaultInjector::admit_span() {
  if (span_drop_depth_ <= 0) return true;
  if (rng_spans_.uniform() < span_drop_fraction_) {
    ++spans_dropped_;
    return false;
  }
  return true;
}

bool FaultInjector::admit_scatter_bucket() {
  if (scatter_drop_depth_ <= 0) return true;
  if (rng_scatter_.uniform() < scatter_drop_fraction_) {
    ++scatter_dropped_;
    return false;
  }
  return true;
}

void FaultInjector::record(const FaultEvent& ev, const char* action,
                           const std::string& target,
                           const std::string& reason, double old_cores,
                           double new_cores, int old_replicas,
                           int new_replicas) {
  if (hooks_.log == nullptr) return;
  obs::ControlDecisionRecord rec;
  rec.at = hooks_.sim->now();
  rec.controller = "fault";
  rec.round = events_fired_;
  rec.target = target;
  rec.fault_kind = to_string(ev.kind);
  rec.action = action;
  rec.reason = reason;
  rec.old_cores = old_cores;
  rec.new_cores = new_cores;
  rec.old_replicas = old_replicas;
  rec.new_replicas = new_replicas;
  hooks_.log->append(std::move(rec));
}

void FaultInjector::count_event(FaultKind kind) {
  if (hooks_.app == nullptr) return;
  hooks_.app->metrics()
      .counter("fault.events", {{"kind", to_string(kind)}})
      .add();
}

}  // namespace sora
