#include "obs/causal/profile.h"

#include <algorithm>
#include <map>

#include "obs/json.h"

namespace sora::obs {

std::string CausalEffect::to_json() const {
  JsonObject obj;
  obj.field("perturbation", perturbation.label())
      .field("kind", to_string(perturbation.kind))
      .field("service", perturbation.service)
      .field("checkpoint_s", to_sec(checkpoint))
      .field("base_p99_ms", base_p99_ms)
      .field("cf_p99_ms", cf_p99_ms)
      .field("delta_p99_ms", delta_p99_ms())
      .field("base_goodput", base_goodput)
      .field("cf_goodput", cf_goodput)
      .field("delta_goodput", delta_goodput());
  if (base_knee != 0.0 || cf_knee != 0.0) {
    obj.field("base_knee", base_knee)
        .field("cf_knee", cf_knee)
        .field("delta_knee", delta_knee());
  }
  obj.field("traces_aligned", static_cast<std::uint64_t>(diff.traces_aligned))
      .field("spans_aligned", static_cast<std::uint64_t>(diff.spans_aligned))
      .field("spans_unmatched",
             static_cast<std::uint64_t>(diff.spans_unmatched))
      .field("e2e_delta_ms", diff.e2e_delta_ms);

  std::string edges_json = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeAttribution& e = edges[i];
    if (i > 0) edges_json += ',';
    edges_json += JsonObject{}
                      .field("parent", e.parent)
                      .field("service", e.service)
                      .field("aligned", static_cast<std::uint64_t>(e.aligned))
                      .field("mean_delta_ms", e.mean_delta_ms)
                      .field("total_delta_ms", e.total_delta_ms)
                      .str();
  }
  edges_json += ']';
  obj.raw("edges", edges_json);
  return obj.str();
}

void CausalProfile::sort_effects() {
  std::sort(effects.begin(), effects.end(),
            [](const CausalEffect& a, const CausalEffect& b) {
              const double da = a.delta_p99_ms();
              const double db = b.delta_p99_ms();
              if (da != db) return da < db;  // most improvement first
              return a.perturbation.label() < b.perturbation.label();
            });
}

namespace {

/// Best (most negative) speedup delta-p99 per service, insertion-ordered by
/// map key for determinism.
std::map<std::string, double> best_speedup_deltas(
    const std::vector<CausalEffect>& effects) {
  std::map<std::string, double> best;
  for (const CausalEffect& e : effects) {
    if (e.perturbation.kind != PerturbationKind::kServiceSpeedup) continue;
    const double d = e.delta_p99_ms();
    auto [it, inserted] = best.emplace(e.perturbation.service, d);
    if (!inserted && d < it->second) it->second = d;
  }
  return best;
}

}  // namespace

std::vector<std::string> CausalProfile::causal_service_ranking() const {
  const auto best = best_speedup_deltas(effects);
  std::vector<std::pair<std::string, double>> ranked(best.begin(), best.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (const auto& [name, delta] : ranked) out.push_back(name);
  return out;
}

std::string CausalProfile::ranking_string() const {
  std::string out;
  for (const std::string& name : causal_service_ranking()) {
    if (!out.empty()) out += '>';
    out += name;
  }
  return out;
}

std::string CausalProfile::to_json() const {
  JsonObject obj;
  obj.field("scenario", scenario)
      .field("checkpoint_s", to_sec(checkpoint))
      .field("window_s", to_sec(window))
      .field("control_identical", control_identical)
      .field("primary_sim_digest", primary_sim_digest)
      .field("control_sim_digest", control_sim_digest)
      .field("primary_trace_digest", primary_trace_digest)
      .field("control_trace_digest", control_trace_digest)
      .field("pearson_pick", pearson_pick)
      .field("causal_pick", causal_pick)
      .field("agree", agree)
      .field("causal_rank", ranking_string());
  std::string effects_json = "[";
  for (std::size_t i = 0; i < effects.size(); ++i) {
    if (i > 0) effects_json += ',';
    effects_json += effects[i].to_json();
  }
  effects_json += ']';
  obj.raw("effects", effects_json);
  return obj.str();
}

}  // namespace sora::obs
