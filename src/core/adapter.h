// Concurrency Adapter (Section 4.1, Reallocation Module).
//
// Applies estimator recommendations to the live pools, with guardrails:
// clamping, hysteresis (skip no-op changes), exploration when the model
// cannot see a knee because the current allocation saturates (the paper:
// "we gradually increase the allocation to find a new optimal value"), and
// proportional rescaling right after a hardware scale event so the system
// is not left mismatched while the model re-learns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/scg_model.h"
#include "metrics/knob.h"

namespace sora {

struct AdapterOptions {
  int min_size = 1;
};

/// What the adapter decided for one knob on one control round.
struct AdaptAction {
  enum class Type {
    kNone,         ///< no change (estimate missing and not saturated)
    kApplied,      ///< estimate applied
    kExplored,     ///< grew the allocation to expose the knee
    kProportional  ///< rescaled after a hardware scale event
  };
  Type type = Type::kNone;
  int old_size = 0;
  int new_size = 0;
  SimTime at = 0;
  /// Human-readable rationale for the verdict (fed into the decision log).
  std::string reason;
};

const char* to_string(AdaptAction::Type type);

class ConcurrencyAdapter {
 public:
  /// Upper bound of every pool size the adapter sets.
  static constexpr int kMaxSize = 512;

  explicit ConcurrencyAdapter(AdapterOptions options = {});

  /// Apply an estimate to a knob. `recent_concurrency` is a high quantile
  /// of recent aggregate concurrency (for saturation detection) and
  /// `good_fraction` the recent fraction of within-deadline completions
  /// (for emergency detection); `now` stamps the action. The estimate's
  /// recommendation is the *aggregate* optimal concurrency; it is divided
  /// across the owner's active replicas.
  AdaptAction adapt(const ResourceKnob& knob, const ConcurrencyEstimate& est,
                    double recent_concurrency, SimTime now,
                    double good_fraction = 1.0);

  /// Proportionally rescale a knob after hardware scaling (`factor` =
  /// new capacity / old capacity).
  AdaptAction rescale_proportional(const ResourceKnob& knob, double factor,
                                   SimTime now);

  const std::vector<AdaptAction>& history() const { return history_; }

 private:
  struct KnobState {
    int pending_shrinks = 0;
    SimTime last_applied_at = -1;
  };

  int clamp_size(double size) const;
  KnobState& state(const ResourceKnob& knob);

  AdapterOptions options_;
  std::vector<AdaptAction> history_;
  std::vector<std::pair<ResourceKnob, KnobState>> states_;
};

}  // namespace sora
