// Tests for the Concurrency Adapter: apply, clamp, explore, guardrails.
#include "core/adapter.h"

#include <gtest/gtest.h>

#include "svc/application.h"
#include "test_util.h"
#include "trace/tracer.h"

namespace sora {
namespace {

struct Fixture {
  Simulator sim;
  Tracer tracer;
  Application app;
  explicit Fixture(ApplicationConfig cfg)
      : app(sim, tracer, std::move(cfg), 1) {}
};

ConcurrencyEstimate valid_estimate(int recommended) {
  ConcurrencyEstimate est;
  est.valid = true;
  est.recommended = recommended;
  est.knee_concurrency = recommended;
  return est;
}

ConcurrencyEstimate invalid_estimate() {
  ConcurrencyEstimate est;
  est.failure = "no knee detected";
  return est;
}

TEST(Adapter, AppliesGrowthImmediately) {
  Fixture f(testutil::single_service(2.0, 5));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  const auto a = adapter.adapt(knob, valid_estimate(12), 3.0, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kApplied);
  EXPECT_EQ(a.old_size, 5);
  // Headroom: ceil(12 * 1.2 + 1) = 16.
  EXPECT_EQ(a.new_size, 16);
  EXPECT_EQ(knob.current_size(), 16);
  EXPECT_EQ(adapter.history().size(), 1u);
}

TEST(Adapter, ShrinkNeedsConfirmation) {
  Fixture f(testutil::single_service(2.0, 20));
  ConcurrencyAdapter adapter;  // shrinks need two agreeing estimates
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  // First shrink verdict: deferred.
  auto a = adapter.adapt(knob, valid_estimate(8), 10.0, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);
  EXPECT_EQ(knob.current_size(), 20);
  // Second consecutive: applied (with headroom: ceil(8 * 1.2 + 1) = 11).
  a = adapter.adapt(knob, valid_estimate(8), 10.0, sec(2));
  EXPECT_EQ(a.type, AdaptAction::Type::kApplied);
  EXPECT_EQ(knob.current_size(), 11);
}

TEST(Adapter, ShrinkConfirmationResetByInvalidEstimate) {
  Fixture f(testutil::single_service(2.0, 20));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  adapter.adapt(knob, valid_estimate(8), 5.0, sec(1));     // pending
  adapter.adapt(knob, invalid_estimate(), 5.0, sec(2));    // resets
  const auto a = adapter.adapt(knob, valid_estimate(8), 5.0, sec(3));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);  // pending again, not applied
  EXPECT_EQ(knob.current_size(), 20);
}

TEST(Adapter, ClampsToBounds) {
  Fixture f(testutil::single_service(2.0, 5));
  AdapterOptions opts;
  opts.min_size = 2;
  ConcurrencyAdapter adapter(opts);
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  // ceil(500 * 1.2 + 1) = 601 > the ceiling.
  auto a = adapter.adapt(knob, valid_estimate(500), 3.0, sec(1));
  EXPECT_EQ(a.new_size, ConcurrencyAdapter::kMaxSize);
  // Shrink below min clamps to min (two rounds for confirmation).
  // ceil(1 * 1.2 + 1) = 3 > min_size, so push the floor with min_size 3.
  adapter.adapt(knob, valid_estimate(1), 3.0, sec(2));
  a = adapter.adapt(knob, valid_estimate(1), 3.0, sec(3));
  EXPECT_EQ(a.new_size, 3);
}

TEST(Adapter, DividesAcrossReplicas) {
  Fixture f(testutil::single_service(2.0, 5));
  f.app.service("svc")->scale_replicas(4);
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  const auto a = adapter.adapt(knob, valid_estimate(22), 3.0, sec(1));
  // ceil((22 * 1.2 + 1) / 4) = 7 per replica.
  EXPECT_EQ(a.new_size, 7);
  EXPECT_EQ(knob.total_capacity(), 28);
}

TEST(Adapter, ExploresWhenSaturatedWithoutEstimate) {
  Fixture f(testutil::single_service(2.0, 8));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  // Concurrency 7.5 >= 0.85 * 8.
  const auto a = adapter.adapt(knob, invalid_estimate(), 7.5, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kExplored);
  EXPECT_GT(a.new_size, 8);
}

TEST(Adapter, NoExplorationWhenUnsaturated) {
  Fixture f(testutil::single_service(2.0, 8));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  const auto a = adapter.adapt(knob, invalid_estimate(), 2.0, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);
  EXPECT_EQ(knob.current_size(), 8);
}

TEST(Adapter, ExplorationCooldownAfterApply) {
  Fixture f(testutil::single_service(2.0, 5));
  ConcurrencyAdapter adapter;  // 60 s exploration cooldown
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  adapter.adapt(knob, valid_estimate(10), 4.0, sec(1));  // applied at t=1s
  // (headroom: pool is now 13.) Saturated right after apply: cooldown
  // suppresses exploration.
  auto a = adapter.adapt(knob, invalid_estimate(), 12.9, sec(10));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);
  // After the cooldown expires, exploration resumes.
  a = adapter.adapt(knob, invalid_estimate(), 12.9, sec(70));
  EXPECT_EQ(a.type, AdaptAction::Type::kExplored);
}

TEST(Adapter, ConfirmingCurrentSizeRefreshesCooldown) {
  Fixture f(testutil::single_service(2.0, 13));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  // Knee 10 + headroom = 13 = current size: no change, cooldown refreshed.
  auto a = adapter.adapt(knob, valid_estimate(10), 9.0, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);
  a = adapter.adapt(knob, invalid_estimate(), 12.9, sec(30));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);  // still in cooldown
}

TEST(Adapter, EmergencyExplorationBypassesCooldown) {
  Fixture f(testutil::single_service(2.0, 13));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  adapter.adapt(knob, valid_estimate(10), 9.0, sec(1));  // cooldown armed
  // Saturated AND goodput collapsed -> emergency growth despite cooldown.
  const auto a =
      adapter.adapt(knob, invalid_estimate(), 12.9, sec(10), /*good=*/0.1);
  EXPECT_EQ(a.type, AdaptAction::Type::kExplored);
  // Emergency factor 3x: 13 * 3 + 1 = 40.
  EXPECT_EQ(a.new_size, 40);
}

TEST(Adapter, ProportionalRescale) {
  Fixture f(testutil::single_service(2.0, 10));
  ConcurrencyAdapter adapter;
  ResourceKnob knob = ResourceKnob::entry(f.app.service("svc"));
  auto a = adapter.rescale_proportional(knob, 2.0, sec(1));
  EXPECT_EQ(a.type, AdaptAction::Type::kProportional);
  EXPECT_EQ(knob.current_size(), 20);
  a = adapter.rescale_proportional(knob, 1.0, sec(2));
  EXPECT_EQ(a.type, AdaptAction::Type::kNone);
}

TEST(Adapter, ActionTypeNames) {
  EXPECT_STREQ(to_string(AdaptAction::Type::kNone), "none");
  EXPECT_STREQ(to_string(AdaptAction::Type::kApplied), "applied");
  EXPECT_STREQ(to_string(AdaptAction::Type::kExplored), "explored");
  EXPECT_STREQ(to_string(AdaptAction::Type::kProportional), "proportional");
}

}  // namespace
}  // namespace sora
