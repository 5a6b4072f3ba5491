#include "core/sora.h"

#include <algorithm>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "svc/application.h"
#include "svc/service.h"

namespace sora {

SoraFrameworkOptions make_conscale_options() {
  SoraFrameworkOptions options;
  options.model = ModelKind::kScatterConcurrencyThroughput;
  options.deadline_propagation = false;
  return options;
}

SoraFramework::SoraFramework(Application& app, TraceWarehouse& warehouse,
                             SoraFrameworkOptions options)
    : Controller(app.sim(), kControlPeriod),
      app_(app),
      warehouse_(warehouse),
      options_(options),
      estimator_(app.sim(), app.tracer(),
                 [&options] {
                   EstimatorOptions e = options.estimator;
                   e.scg.kind = options.model;
                   return e;
                 }()),
      adapter_(options.adapter),
      localizer_(app, warehouse, options.localizer) {
  set_metrics(&app.metrics());
}

void SoraFramework::manage(const ResourceKnob& knob) {
  for (const ResourceKnob& existing : knobs_) {
    if (existing == knob) return;
  }
  knobs_.push_back(knob);
  estimator_.watch(knob);
  // Deadline propagation reads the knob's upstream column every round.
  if (propagates_deadlines()) {
    warehouse_.track_upstream(knob.completion_service());
  }
}

void SoraFramework::begin() { localizer_.begin_window(); }

const char* SoraFramework::name() const {
  return options_.model == ModelKind::kScatterConcurrencyGoodput ? "sora"
                                                                 : "conscale";
}

std::vector<SoraFramework::KnobKnee> SoraFramework::current_knees() const {
  std::vector<KnobKnee> out;
  out.reserve(last_good_.size());
  for (const auto& [label, lg] : last_good_) {
    KnobKnee k;
    k.label = label;
    for (const ResourceKnob& knob : knobs_) {
      if (knob.label() == label && knob.service() != nullptr) {
        k.service = knob.service()->name();
        break;
      }
    }
    k.knee_concurrency = lg.estimate.knee_concurrency;
    k.recommended = lg.estimate.recommended;
    k.at = lg.at;
    k.round = lg.round;
    out.push_back(std::move(k));
  }
  return out;
}

void SoraFramework::control_round() {
  SORA_PROFILE_STAGE(obs::Stage::kSoraControlRound);
  round();
}

void SoraFramework::observe(SimTime now) {
  (void)now;
  // Critical Service Localization Phase.
  {
    SORA_PROFILE_STAGE(obs::Stage::kSoraLocalization);
    last_report_ = localizer_.analyze();
  }
  localizer_.begin_window();

  // Resolve the localization verdict once; every knob's record shares it.
  critical_name_.clear();
  critical_util_ = 0.0;
  critical_pcc_ = 0.0;
  if (last_report_.critical.valid()) {
    for (const auto& svc : app_.services()) {
      if (svc->id() == last_report_.critical) {
        critical_name_ = svc->name();
        break;
      }
    }
    for (const ServiceDiagnostics& d : last_report_.services) {
      if (d.service == last_report_.critical) {
        critical_util_ = d.utilization;
        critical_pcc_ = d.pcc;
        break;
      }
    }
  }
}

void SoraFramework::decide(SimTime now) {
  obs::MetricsRegistry& metrics = app_.metrics();
  obs::DecisionLog* log = decision_log();

  for (const ResourceKnob& knob : knobs_) {
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.target = knob.label();
    rec.critical_service = critical_name_;
    rec.critical_utilization = critical_util_;
    rec.critical_pcc = critical_pcc_;
    rec.traces_analyzed = last_report_.traces_analyzed;

    const ServiceId knob_service = knob.completion_service();

    // RT Threshold Propagation Phase (SCG only).
    if (propagates_deadlines()) {
      const DeadlineResult dl = propagate_deadline(
          warehouse_, now - options_.estimator.window, now, knob_service,
          options_.sla, options_.deadline);
      if (dl.valid) {
        estimator_.set_rt_threshold(knob, dl.rt_threshold);
      }
      rec.deadline_valid = dl.valid;
      rec.rt_threshold = estimator_.rt_threshold(knob);
      rec.mean_upstream_pt = dl.mean_upstream_pt;
    }

    // Estimation Phase + Reallocation.
    const ConcurrencyEstimate est = estimator_.estimate(knob);
    if (est.valid) {
      last_valid_estimate_[knob.label()] = now;
      last_good_[knob.label()] = LastGoodEstimate{est, now, rounds()};
      // Publish the knee to the knob service's admission controller (if
      // one is installed): knee-coupled admission caps admitted concurrency
      // at the knee the SCG model just fitted. knee_concurrency is already
      // the aggregate across replicas — exactly the admission unit.
      Service* knee_svc = knob.is_edge() ? app_.service(knob.completion_service())
                                         : knob.service();
      if (knee_svc != nullptr && knee_svc->admission() != nullptr) {
        knee_svc->admission()->set_knee(est.knee_concurrency, now);
        ControlAction pub;
        pub.kind = ControlAction::Kind::kAdmissionTarget;
        pub.target = knee_svc->name();
        pub.admission_target = est.knee_concurrency;
        pub.reason = "published fitted knee to admission controller";
        emit(std::move(pub));
      }
    }
    const double good_fraction = estimator_.good_fraction(knob);
    const AdaptAction action = adapter_.adapt(
        knob, est, estimator_.concurrency_quantile(knob, 90.0), now,
        good_fraction);
    if (action.type != AdaptAction::Type::kNone) {
      // Samples gathered under the old allocation describe a different
      // system; restart the scatter for the new one.
      estimator_.clear(knob);
      ControlAction act;
      act.kind = ControlAction::Kind::kPoolResize;
      act.target = knob.label();
      act.reason = action.reason;
      act.old_size = action.old_size;
      act.new_size = action.new_size;
      emit(std::move(act));
    }

    const obs::MetricLabels knob_labels{{"knob", knob.label()}};
    metrics.gauge("sora.scatter_points", knob_labels)
        .set(static_cast<double>(est.points_used));
    metrics.gauge("sora.rt_threshold_us", knob_labels)
        .set(static_cast<double>(estimator_.rt_threshold(knob)));
    if (est.valid) {
      metrics.counter("sora.estimates_valid", knob_labels).add();
      metrics.gauge("sora.knee_concurrency", knob_labels)
          .set(est.knee_concurrency);
      metrics.gauge("sora.fit_degree", knob_labels)
          .set(static_cast<double>(est.degree_used));
    } else {
      metrics.counter("sora.estimate_failures", knob_labels).add();
    }
    const auto age_it = last_valid_estimate_.find(knob.label());
    metrics.gauge("sora.estimate_age_us", knob_labels)
        .set(age_it == last_valid_estimate_.end()
                 ? -1.0
                 : static_cast<double>(now - age_it->second));
    metrics
        .counter("sora.actions", {{"controller", name()},
                                  {"action", to_string(action.type)}})
        .add();

    if (log != nullptr) {
      rec.estimate_valid = est.valid;
      rec.scatter_points = est.points_used;
      rec.recommended = est.recommended;
      rec.knee_concurrency = est.knee_concurrency;
      rec.knee_value = est.knee_value;
      rec.peak_concurrency = est.peak_concurrency;
      rec.peak_value = est.peak_value;
      rec.degree_used = est.degree_used;
      rec.r_squared = est.r_squared;
      rec.good_fraction = good_fraction;
      rec.estimate_failure = est.failure;
      rec.action = to_string(action.type);
      rec.reason = action.reason;
      if (!est.valid && action.type == AdaptAction::Type::kNone) {
        // The scatter window was rejected (too few samples, no knee, ...):
        // say explicitly what the knob is running on instead.
        const auto lg = last_good_.find(knob.label());
        if (lg != last_good_.end()) {
          rec.reason += "; holding last-known-good knee (recommended " +
                        std::to_string(lg->second.estimate.recommended) +
                        " from round " + std::to_string(lg->second.round) +
                        ")";
        } else {
          rec.reason += "; no known-good knee yet, holding configured size";
        }
      }
      rec.old_size = action.old_size;
      rec.new_size = action.new_size;
      record_decision(std::move(rec));
    }
  }

  if (knobs_.empty()) {
    // A round with nothing to manage must still be distinguishable from a
    // round that never ran.
    obs::ControlDecisionRecord rec;
    rec.at = now;
    rec.action = "round";
    rec.reason = "control round completed with no managed knobs";
    record_decision(std::move(rec));
  }
}

void SoraFramework::on_topology_changed(Service* service,
                                        const std::string& why) {
  const SimTime now = app_.sim().now();
  // Traces gathered so far describe a replica set that no longer exists;
  // restart the localization window so the next verdict is computed from
  // post-change evidence only.
  localizer_.begin_window();
  for (const ResourceKnob& knob : knobs_) {
    const bool owns = knob.service() == service;
    const bool targets =
        knob.is_edge() && knob.completion_service() == service->id();
    if (owns || targets) estimator_.clear(knob);
  }
  obs::ControlDecisionRecord rec;
  rec.at = now;
  rec.target = service->name();
  rec.action = "relocalize";
  rec.reason = "topology changed (" + why +
               "): localization window restarted, affected scatter discarded";
  record_decision(std::move(rec));
  SORA_INFO << "sora: topology changed for " << service->name() << " (" << why
            << "), relocalizing";
}

void SoraFramework::on_hardware_scaled(Service* service, double old_cores,
                                       double new_cores, int old_replicas,
                                       int new_replicas) {
  const SimTime now = app_.sim().now();
  for (const ResourceKnob& knob : knobs_) {
    const bool owns = knob.service() == service;
    const bool targets =
        knob.is_edge() && knob.completion_service() == service->id();
    if (!owns && !targets) continue;

    double factor = 1.0;
    if (old_cores > 0.0 && new_cores != old_cores && owns && !knob.is_edge()) {
      // Vertical scaling of the pool's owner: thread demand scales with the
      // usable cores.
      factor = new_cores / old_cores;
    } else if (old_cores > 0.0 && new_cores != old_cores && targets) {
      // Vertical scaling of an edge knob's target: the target can absorb
      // proportionally more concurrent calls.
      factor = new_cores / old_cores;
    } else if (old_replicas > 0 && new_replicas != old_replicas && targets) {
      // Horizontal scaling of the target: the caller's connection pool
      // should track the target's aggregate parallelism (Section 5.3).
      factor = static_cast<double>(new_replicas) /
               static_cast<double>(old_replicas);
    }

    if (factor != 1.0) {
      const AdaptAction action = adapter_.rescale_proportional(knob, factor, now);
      obs::ControlDecisionRecord rec;
      rec.at = now;
      rec.target = knob.label();
      rec.action = to_string(action.type);
      rec.reason = action.reason;
      rec.old_size = action.old_size;
      rec.new_size = action.new_size;
      rec.old_cores = old_cores;
      rec.new_cores = new_cores;
      rec.old_replicas = old_replicas;
      rec.new_replicas = new_replicas;
      record_decision(std::move(rec));
    }
    // The learned concurrency-goodput curve described the old hardware.
    estimator_.clear(knob);
    SORA_INFO << "sora: hardware scaled for " << knob.label()
              << ", curve reset (factor " << factor << ")";
  }
}

}  // namespace sora
