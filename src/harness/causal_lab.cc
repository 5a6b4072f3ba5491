#include "harness/causal_lab.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/log.h"
#include "harness/sweep.h"
#include "trace/align.h"

namespace sora {

namespace {

/// Admission-cap what-if: shifts the controller's limit bounds by
/// +delta/-delta on services that have one.
constexpr int kCapDelta = 4;

/// Apply one perturbation to a live application (fires at the checkpoint).
void apply_perturbation(const obs::Perturbation& p, Application& app) {
  Service* svc = app.service(p.service);
  if (svc == nullptr) return;
  switch (p.kind) {
    case obs::PerturbationKind::kServiceSpeedup:
      svc->set_demand_scale(svc->demand_scale() * p.factor);
      break;
    case obs::PerturbationKind::kEntryPoolDelta:
      svc->resize_entry_pool(std::max(1, svc->entry_pool_size() + p.delta));
      break;
    case obs::PerturbationKind::kAdmissionCapDelta: {
      AdmissionController* ac = svc->admission();
      if (ac == nullptr) return;
      const AdmissionOptions& o = ac->options();
      ac->set_limit_bounds(std::max(1.0, o.min_limit + p.delta),
                           std::max(1.0, o.max_limit + p.delta),
                           app.sim().now());
      break;
    }
  }
}

/// Latest learned knee for `service` across the experiment's frameworks
/// (0 when no framework has one).
double knee_for(Experiment& exp, const std::string& service) {
  double knee = 0.0;
  SimTime latest = -1;
  for (const auto& fw : exp.frameworks()) {
    for (const auto& k : fw->current_knees()) {
      if (k.service == service && k.at > latest) {
        latest = k.at;
        knee = k.knee_concurrency;
      }
    }
  }
  return knee;
}

/// The Pearson localizer's verdict over the measurement window: the modal
/// critical_service across the control rounds that landed in [from, to]
/// (the end-of-run report alone can straddle a load phase the causal window
/// never saw). Ties break toward the verdict seen latest, then by name.
/// Falls back to the first framework's final report when no round landed in
/// the window.
std::string pearson_pick_of(Experiment& exp, SimTime from, SimTime to) {
  std::map<std::string, std::size_t> votes;
  std::map<std::string, SimTime> latest;
  for (const obs::ControlDecisionRecord& rec : exp.decision_log().records()) {
    if (rec.at < from || rec.at > to || rec.critical_service.empty()) continue;
    if (rec.controller == "causal" || rec.controller == "fault") continue;
    ++votes[rec.critical_service];
    SimTime& seen = latest[rec.critical_service];
    seen = std::max(seen, rec.at);
  }
  std::string pick;
  std::size_t best_votes = 0;
  SimTime best_latest = -1;
  for (const auto& [name, n] : votes) {
    const SimTime seen = latest[name];
    if (n > best_votes || (n == best_votes && seen > best_latest)) {
      pick = name;
      best_votes = n;
      best_latest = seen;
    }
  }
  if (!pick.empty()) return pick;
  if (exp.frameworks().empty()) return "";
  const CriticalServiceReport& report = exp.frameworks().front()->last_report();
  if (!report.critical.valid()) return "";
  return exp.app().service_name(report.critical);
}

}  // namespace

CausalLab::CausalLab(Builder builder, CausalLabOptions options)
    : builder_(std::move(builder)), options_(std::move(options)) {}

std::unique_ptr<Experiment> CausalLab::build_one(bool with_digest) const {
  std::unique_ptr<Experiment> exp = builder_();
  if (with_digest) exp->sim().set_digest_enabled(true);
  return exp;
}

std::vector<obs::Perturbation> CausalLab::plan_perturbations(
    Application& app) const {
  std::vector<std::string> names = options_.services;
  if (names.empty()) {
    for (const auto& svc : app.services()) names.push_back(svc->name());
  }
  std::vector<obs::Perturbation> plan;
  for (const std::string& name : names) {
    Service* svc = app.service(name);
    if (svc == nullptr) {
      SORA_WARN << "causal: unknown service '" << name << "' skipped";
      continue;
    }
    for (double factor : options_.speedup_factors) {
      obs::Perturbation p = obs::Perturbation::speedup(name, factor);
      p.service_id = svc->id();
      plan.push_back(std::move(p));
    }
    if (options_.pool_delta != 0) {
      for (int delta : {options_.pool_delta, -options_.pool_delta}) {
        obs::Perturbation p = obs::Perturbation::pool_delta(name, delta);
        p.service_id = svc->id();
        plan.push_back(std::move(p));
      }
    }
    if (svc->admission() != nullptr) {
      for (int delta : {kCapDelta, -kCapDelta}) {
        obs::Perturbation p = obs::Perturbation::cap_delta(name, delta);
        p.service_id = svc->id();
        plan.push_back(std::move(p));
      }
    }
  }
  return plan;
}

CausalLab::WindowOutcome CausalLab::window_outcome(Experiment& exp) const {
  WindowOutcome out;
  const SimTime from = options_.checkpoint;
  const SimTime to = options_.checkpoint + window_;
  const SimTime sla = exp.config().sla;
  std::vector<SimTime> rts;
  std::uint64_t good = 0;
  exp.warehouse().for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    if (t.start < from || t.start > to) return;
    if (t.root().failed || t.rejected()) return;
    rts.push_back(t.response_time());
    if (t.response_time() <= sla) ++good;
  });
  out.traces = rts.size();
  if (!rts.empty()) {
    std::sort(rts.begin(), rts.end());
    // Exact (deterministic) p99: nearest-rank on the sorted sample.
    const std::size_t idx =
        (rts.size() * 99 + 99) / 100 == 0 ? 0 : (rts.size() * 99 + 99) / 100 - 1;
    out.p99_ms = to_msec(rts[std::min(idx, rts.size() - 1)]);
  }
  if (window_ > 0) out.goodput = static_cast<double>(good) / to_sec(window_);
  return out;
}

obs::CausalEffect CausalLab::evaluate(const obs::Perturbation& p) const {
  std::unique_ptr<Experiment> exp = build_one(/*with_digest=*/false);
  Application* app = &exp->app();
  const obs::Perturbation pert = p;
  exp->sim().post_at(options_.checkpoint,
                     [pert, app] { apply_perturbation(pert, *app); });
  exp->run();

  obs::CausalEffect effect;
  effect.perturbation = p;
  effect.checkpoint = options_.checkpoint;
  effect.base_p99_ms = base_outcome_.p99_ms;
  effect.base_goodput = base_outcome_.goodput;
  const WindowOutcome cf = window_outcome(*exp);
  effect.cf_p99_ms = cf.p99_ms;
  effect.cf_goodput = cf.goodput;
  effect.base_knee = knee_for(*baseline_, p.service);
  effect.cf_knee = knee_for(*exp, p.service);

  effect.diff =
      diff_warehouses(baseline_->warehouse(), exp->warehouse(),
                      options_.checkpoint, options_.checkpoint + window_);
  effect.edges.reserve(effect.diff.edges.size());
  for (const EdgeLatencyDelta& e : effect.diff.edges) {
    obs::EdgeAttribution attr;
    attr.parent = e.parent.valid() ? app->service_name(e.parent) : "client";
    attr.service = app->service_name(e.service);
    attr.aligned = e.aligned;
    attr.mean_delta_ms = e.mean_delta_ms();
    attr.total_delta_ms = e.total_delta_ms();
    effect.edges.push_back(std::move(attr));
  }
  return effect;
}

obs::CausalProfile CausalLab::run() {
  obs::CausalProfile profile;
  profile.scenario = options_.scenario;
  profile.checkpoint = options_.checkpoint;

  // Primary baseline: full run with event + trace digests on.
  baseline_ = build_one(/*with_digest=*/true);
  window_ = options_.window > 0
                ? options_.window
                : baseline_->config().duration - options_.checkpoint;
  profile.window = window_;
  baseline_->run();
  profile.primary_sim_digest = baseline_->sim().digest();
  profile.primary_trace_digest = baseline_->warehouse().digest();
  base_outcome_ = window_outcome(*baseline_);

  // Control re-run: the unperturbed baseline again, which must match the
  // primary bit for bit (the per-round determinism proof; it costs one
  // extra run). Any divergence here invalidates the counterfactual
  // comparison, so it is loud.
  {
    std::unique_ptr<Experiment> control = build_one(/*with_digest=*/true);
    control->run();
    profile.control_sim_digest = control->sim().digest();
    profile.control_trace_digest = control->warehouse().digest();
    profile.control_identical =
        profile.control_sim_digest == profile.primary_sim_digest &&
        profile.control_trace_digest == profile.primary_trace_digest;
    if (!profile.control_identical) {
      SORA_WARN << "causal: control re-run diverged from primary "
                << "(sim " << profile.primary_sim_digest << " vs "
                << profile.control_sim_digest << ", traces "
                << profile.primary_trace_digest << " vs "
                << profile.control_trace_digest
                << "); profile deltas are not trustworthy";
    }
  }

  // Counterfactual fan. SweepRunner returns index-ordered results, so the
  // profile is bit-identical no matter the worker count.
  const std::vector<obs::Perturbation> plan =
      plan_perturbations(baseline_->app());
  SweepRunner runner(options_.threads);
  profile.effects = runner.map(
      plan, [this](const obs::Perturbation& p) { return evaluate(p); });
  profile.sort_effects();

  profile.pearson_pick = pearson_pick_of(*baseline_, options_.checkpoint,
                                         options_.checkpoint + window_);
  const std::vector<std::string> ranking = profile.causal_service_ranking();
  profile.causal_pick = ranking.empty() ? "" : ranking.front();
  profile.agree = !profile.causal_pick.empty() &&
                  profile.causal_pick == profile.pearson_pick;

  append_decision_records(profile);
  publish(*baseline_, {profile});
  return profile;
}

void CausalLab::append_decision_records(const obs::CausalProfile& profile) {
  const SimTime verdict_at = options_.checkpoint + window_;
  std::uint64_t round = 0;
  for (const obs::CausalEffect& e : profile.effects) {
    obs::ControlDecisionRecord rec;
    rec.at = verdict_at;
    rec.controller = "causal";
    rec.round = round++;
    rec.target = e.perturbation.service;
    rec.action = "causal_effect";
    rec.causal_perturbation = e.perturbation.label();
    rec.causal_delta_p99_ms = e.delta_p99_ms();
    rec.causal_rank = profile.ranking_string();
    rec.traces_analyzed = e.diff.traces_aligned;
    rec.reason = "counterfactual " + e.perturbation.label();
    baseline_->decision_log().append(std::move(rec));
  }

  obs::ControlDecisionRecord rank;
  rank.at = verdict_at;
  rank.controller = "causal";
  rank.round = round;
  rank.target = profile.causal_pick;
  rank.critical_service = profile.pearson_pick;
  rank.action = "causal_rank";
  rank.causal_rank = profile.ranking_string();
  if (!profile.effects.empty()) {
    rank.causal_perturbation = profile.effects.front().perturbation.label();
    rank.causal_delta_p99_ms = profile.effects.front().delta_p99_ms();
  }
  rank.reason = profile.agree
                    ? "causal pick matches pearson localizer"
                    : "causal pick diverges from pearson localizer";
  baseline_->decision_log().append(std::move(rank));
}

std::string CausalLab::profiles_json(
    const std::vector<obs::CausalProfile>& profiles) {
  std::string json = "{\"profiles\":[";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (i > 0) json += ',';
    json += profiles[i].to_json();
  }
  json += "]}";
  return json;
}

void CausalLab::publish(Experiment& exp,
                        const std::vector<obs::CausalProfile>& profiles) {
  if (exp.ctl_plane() != nullptr) {
    exp.ctl_plane()->publish_causal(profiles_json(profiles));
  }
}

}  // namespace sora
