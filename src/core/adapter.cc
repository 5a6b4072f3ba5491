#include "core/adapter.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "svc/service.h"

namespace sora {

/// Exploration when saturated and no knee: new = cur * factor + add.
constexpr double kExplorationFactor = 1.25;
constexpr int kExplorationAdd = 1;
/// Recent high-quantile concurrency >= this fraction of capacity counts
/// as saturated.
constexpr double kSaturationFraction = 0.85;
/// Headroom applied on top of the knee: new = ceil(knee * factor) + add.
/// The knee is where goodput saturates; a little slack above it keeps
/// bursts from queueing behind the pool without entering the
/// over-allocation regime.
constexpr double kHeadroomFactor = 1.2;
constexpr int kHeadroomAdd = 1;
/// Emergency exploration: when the pool is saturated AND the fraction of
/// within-deadline completions has collapsed below this, the system state
/// has shifted under the knee (e.g. request-type drift) — grow
/// immediately, ignoring the cooldown, at an accelerated factor.
constexpr double kEmergencyGoodFraction = 0.5;
constexpr double kEmergencyFactor = 3.0;
/// A shrink is applied only after this many consecutive estimates agree
/// the pool should shrink (guards against transient false knees).
constexpr int kShrinkConfirmations = 2;
/// After applying an estimate, suppress saturation-driven exploration for
/// this long: the applied knee intentionally caps concurrency, so
/// saturation right after an apply is expected, not evidence the knee is
/// stale.
constexpr SimTime kExplorationCooldown = sec(60);

const char* to_string(AdaptAction::Type type) {
  switch (type) {
    case AdaptAction::Type::kNone:
      return "none";
    case AdaptAction::Type::kApplied:
      return "applied";
    case AdaptAction::Type::kExplored:
      return "explored";
    case AdaptAction::Type::kProportional:
      return "proportional";
  }
  return "?";
}

ConcurrencyAdapter::ConcurrencyAdapter(AdapterOptions options)
    : options_(options) {}

int ConcurrencyAdapter::clamp_size(double size) const {
  return std::clamp(static_cast<int>(std::lround(size)), options_.min_size,
                    kMaxSize);
}

ConcurrencyAdapter::KnobState& ConcurrencyAdapter::state(
    const ResourceKnob& knob) {
  for (auto& [k, s] : states_) {
    if (k == knob) return s;
  }
  states_.emplace_back(knob, KnobState{});
  return states_.back().second;
}

AdaptAction ConcurrencyAdapter::adapt(const ResourceKnob& knob,
                                      const ConcurrencyEstimate& est,
                                      double recent_concurrency, SimTime now,
                                      double good_fraction) {
  AdaptAction action;
  action.at = now;
  action.old_size = knob.current_size();

  const int replicas = std::max(1, knob.service()->active_replicas());
  KnobState& st = state(knob);

  if (est.valid) {
    const double with_headroom =
        static_cast<double>(est.recommended) * kHeadroomFactor + kHeadroomAdd;
    const double per_replica = with_headroom / static_cast<double>(replicas);
    action.new_size = clamp_size(std::ceil(per_replica));
    const bool is_shrink = action.new_size < action.old_size;
    if (is_shrink && ++st.pending_shrinks < kShrinkConfirmations) {
      // Wait for the next round to confirm before shrinking a working pool.
      action.new_size = action.old_size;
      action.type = AdaptAction::Type::kNone;
      action.reason = "shrink pending confirmation";
    } else if (action.new_size != action.old_size) {
      st.pending_shrinks = 0;
      st.last_applied_at = now;
      knob.apply(action.new_size);
      action.type = AdaptAction::Type::kApplied;
      action.reason = "estimate applied";
      SORA_INFO << "adapter: " << knob.label() << " " << action.old_size
                << " -> " << action.new_size << " (knee "
                << est.knee_concurrency << ")";
    } else {
      st.pending_shrinks = 0;
      st.last_applied_at = now;  // model confirms current size is the knee
      action.new_size = action.old_size;
      action.type = AdaptAction::Type::kNone;
      action.reason = "estimate confirms current size";
    }
  } else {
    st.pending_shrinks = 0;
    // No usable estimate. If the current allocation is saturated the knee
    // is invisible because the pool itself caps concurrency: explore up —
    // unless an estimate was applied recently (saturation at the knee is
    // expected; see kExplorationCooldown). Exception: when goodput has
    // collapsed while saturated, the system state has drifted under the
    // applied knee — grow immediately and faster.
    const int capacity = knob.total_capacity();
    const bool pinned =
        capacity > 0 &&
        recent_concurrency >=
            kSaturationFraction * static_cast<double>(capacity);
    const bool emergency =
        pinned && good_fraction < kEmergencyGoodFraction;
    const bool in_cooldown =
        !emergency && st.last_applied_at >= 0 &&
        now - st.last_applied_at < kExplorationCooldown;
    const bool saturated = pinned && !in_cooldown;
    if (saturated) {
      const double factor =
          emergency ? std::max(kExplorationFactor, kEmergencyFactor)
                    : kExplorationFactor;
      const double grown =
          static_cast<double>(action.old_size) * factor + kExplorationAdd;
      action.new_size = clamp_size(grown);
      if (action.new_size != action.old_size) {
        knob.apply(action.new_size);
        action.type = AdaptAction::Type::kExplored;
        action.reason =
            emergency
                ? "emergency exploration: saturated, good fraction collapsed"
                : "exploration: saturated, no visible knee";
        SORA_INFO << "adapter: exploring " << knob.label() << " "
                  << action.old_size << " -> " << action.new_size;
      } else {
        action.type = AdaptAction::Type::kNone;
        action.reason = "saturated at size ceiling";
      }
    } else {
      action.new_size = action.old_size;
      action.type = AdaptAction::Type::kNone;
      action.reason = in_cooldown ? "saturated but in exploration cooldown"
                      : est.failure.empty()
                          ? "not saturated, no estimate"
                          : "no estimate (" + est.failure + "), not saturated";
    }
  }
  history_.push_back(action);
  return action;
}

AdaptAction ConcurrencyAdapter::rescale_proportional(const ResourceKnob& knob,
                                                     double factor,
                                                     SimTime now) {
  AdaptAction action;
  action.at = now;
  action.old_size = knob.current_size();
  action.new_size =
      clamp_size(static_cast<double>(action.old_size) * factor);
  if (action.new_size != action.old_size) {
    knob.apply(action.new_size);
    action.type = AdaptAction::Type::kProportional;
    action.reason = "proportional rescale after hardware scale";
    SORA_INFO << "adapter: proportional " << knob.label() << " "
              << action.old_size << " -> " << action.new_size << " (x"
              << factor << ")";
  } else {
    action.type = AdaptAction::Type::kNone;
    action.reason = "proportional rescale is a no-op";
  }
  history_.push_back(action);
  return action;
}

}  // namespace sora
