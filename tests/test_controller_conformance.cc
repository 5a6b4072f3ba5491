// Controller conformance suite: every control plane, one contract.
//
// Parameterized over all seven controllers (Sora, ConScale, FIRM, HPA, VPA,
// Autothrottle, LSRAM), each wired into the same chain topology through the
// Experiment harness. The suite pins the shared Controller contract:
// byte-identical reruns per seed, no actions before the first control
// period, bounded actions per round, graceful stalled rounds and topology
// changes, and schema-valid decision records. The non-parameterized tests
// pin what every controller inherits from the base: the reason guard and
// the emit() action path that feeds actions() and the action listeners.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "metrics/knob.h"
#include "test_util.h"

namespace sora {
namespace {

constexpr SimTime kSla = msec(8);

struct Rig {
  std::unique_ptr<Experiment> exp;
  Controller* ctl = nullptr;
  /// Three control periods and a bit: rounds at p, 2p and 3p.
  SimTime duration = 0;
};

Rig make_rig(const std::string& name, std::uint64_t seed) {
  const SimTime period =
      name == "autothrottle" ? kAutothrottlePeriod : kControlPeriod;
  ExperimentConfig ecfg;
  ecfg.seed = seed;
  ecfg.duration = 3 * period + sec(5);
  ecfg.sla = kSla;
  Rig rig;
  rig.duration = ecfg.duration;
  rig.exp = std::make_unique<Experiment>(testutil::chain_app(0.4), ecfg);
  Experiment& exp = *rig.exp;
  exp.closed_loop(16, msec(10), RequestMix(0));

  if (name == "sora" || name == "conscale") {
    SoraFrameworkOptions so =
        name == "conscale" ? make_conscale_options() : SoraFrameworkOptions{};
    so.sla = kSla;
    auto& fw = exp.add_sora(so);
    fw.manage(ResourceKnob::entry(exp.app().service("mid")));
    rig.ctl = &fw;
  } else if (name == "firm") {
    FirmOptions fo;
    fo.slo_latency = kSla;
    auto& firm = exp.add_firm(fo);
    firm.manage(exp.app().service("mid"));
    rig.ctl = &firm;
  } else if (name == "k8s-hpa") {
    auto& hpa = exp.add_hpa();
    hpa.manage(exp.app().service("mid"));
    rig.ctl = &hpa;
  } else if (name == "k8s-vpa") {
    auto& vpa = exp.add_vpa();
    vpa.manage(exp.app().service("mid"));
    rig.ctl = &vpa;
  } else if (name == "autothrottle") {
    AutothrottleOptions ao;
    ao.budget = kSla;
    auto& at = exp.add_autothrottle(ao);
    at.manage(exp.app().service("mid"));
    rig.ctl = &at;
  } else if (name == "lsram") {
    LsramOptions lo;
    lo.span_slo = msec(4);
    auto& ls = exp.add_lsram(lo);
    ls.manage(ResourceKnob::entry(exp.app().service("mid")));
    rig.ctl = &ls;
  }
  EXPECT_NE(rig.ctl, nullptr) << "unknown controller: " << name;
  EXPECT_EQ(rig.ctl->period(), period);
  return rig;
}

std::string log_bytes(const Experiment& exp) {
  std::ostringstream os;
  exp.export_decision_log(os);
  return os.str();
}

class ControllerConformance : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(
    AllControllers, ControllerConformance,
    ::testing::Values("sora", "conscale", "firm", "k8s-hpa", "k8s-vpa",
                      "autothrottle", "lsram"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(ControllerConformance, ReportsNameAndBoundedContract) {
  Rig rig = make_rig(GetParam(), 42);
  EXPECT_EQ(std::string(rig.ctl->name()), GetParam());
  EXPECT_GT(rig.ctl->max_actions_per_round(), 0u);
}

TEST_P(ControllerConformance, ByteIdenticalRerunsPerSeed) {
  for (std::uint64_t seed : {7ull, 42ull}) {
    Rig first = make_rig(GetParam(), seed);
    first.exp->run();
    Rig second = make_rig(GetParam(), seed);
    second.exp->run();
    EXPECT_EQ(log_bytes(*first.exp), log_bytes(*second.exp))
        << GetParam() << " decision log diverged across reruns, seed "
        << seed;
    EXPECT_EQ(first.ctl->rounds(), second.ctl->rounds());
    EXPECT_EQ(first.ctl->actions().size(), second.ctl->actions().size());
  }
}

TEST_P(ControllerConformance, NoActionsBeforeWarmup) {
  Rig rig = make_rig(GetParam(), 42);
  rig.exp->run();
  EXPECT_GE(rig.ctl->rounds(), 2u);
  for (const ControlAction& a : rig.ctl->actions()) {
    EXPECT_GE(a.at, rig.ctl->period())
        << GetParam() << " acted before the first control period";
    EXPECT_GE(a.round, 1u);
    EXPECT_FALSE(a.reason.empty());
  }
}

TEST_P(ControllerConformance, ActionsPerRoundStayBounded) {
  Rig rig = make_rig(GetParam(), 42);
  rig.exp->run();
  std::map<std::uint64_t, std::size_t> per_round;
  for (const ControlAction& a : rig.ctl->actions()) ++per_round[a.round];
  for (const auto& [round, count] : per_round) {
    EXPECT_LE(count, rig.ctl->max_actions_per_round())
        << GetParam() << " emitted " << count << " actions in round "
        << round;
  }
}

TEST_P(ControllerConformance, StalledRoundsAreGracefulAndAudited) {
  Rig rig = make_rig(GetParam(), 42);
  // Stall [p + 5s, 2p + 5s): the 2p round is skipped, p and 3p run normally
  // (p = 15 s: stall [20s, 35s), rounds at 15s and 45s).
  const SimTime p = rig.ctl->period();
  const SimTime stall_from = p + sec(5);
  const SimTime stall_to = 2 * p + sec(5);
  FaultPlan plan;
  FaultEvent ev;
  ev.kind = FaultKind::kControlStall;
  ev.at = stall_from;
  ev.duration = stall_to - stall_from;
  plan.add(ev);
  rig.exp->enable_faults(plan);
  rig.exp->run();

  int stalled_records = 0;
  for (const auto& rec : rig.exp->decision_log().records()) {
    if (rec.controller == GetParam() && rec.action == "stalled") {
      ++stalled_records;
      EXPECT_FALSE(rec.reason.empty());
      EXPECT_EQ(rec.fault_kind, "control_stall");
    }
  }
  EXPECT_GE(stalled_records, 1) << GetParam() << " left no stall audit trail";
  // Rounds kept counting through the stall (p, 2p, 3p at minimum)...
  EXPECT_GE(rig.ctl->rounds(), 3u);
  // ...but no action landed inside the stall window.
  for (const ControlAction& a : rig.ctl->actions()) {
    EXPECT_FALSE(a.at >= stall_from && a.at < stall_to)
        << GetParam() << " acted while stalled, at=" << a.at;
  }
}

TEST_P(ControllerConformance, TopologyChangeMidRunIsGraceful) {
  Rig rig = make_rig(GetParam(), 42);
  // One round in (at p), then the change lands between rounds.
  rig.exp->run_until(rig.ctl->period() + sec(5));
  const std::uint64_t rounds_before = rig.ctl->rounds();
  ASSERT_GE(rounds_before, 1u)
      << GetParam() << " ran no round before the change";
  rig.ctl->on_topology_changed(rig.exp->app().service("mid"),
                               "instance crash");
  rig.exp->run_until(rig.duration);
  EXPECT_GT(rig.ctl->rounds(), rounds_before)
      << GetParam() << " stopped running rounds after a topology change";
  for (const auto& rec : rig.exp->decision_log().records()) {
    if (rec.controller != GetParam()) continue;
    EXPECT_FALSE(rec.action.empty());
    EXPECT_FALSE(rec.reason.empty());
  }
}

TEST_P(ControllerConformance, DecisionRecordsAreSchemaValid) {
  Rig rig = make_rig(GetParam(), 42);
  rig.exp->run();
  int own_records = 0;
  for (const auto& rec : rig.exp->decision_log().records()) {
    if (rec.controller != GetParam()) continue;
    ++own_records;
    EXPECT_FALSE(rec.action.empty()) << GetParam() << " record without action";
    EXPECT_FALSE(rec.reason.empty()) << GetParam() << " record without reason";
    EXPECT_GE(rec.round, 1u);
    EXPECT_GE(rec.at, rig.ctl->period());
  }
  EXPECT_GT(own_records, 0) << GetParam() << " appended no decision records";
}

// -- base-class reason guard (the unified VPA/HPA vs Sora/FIRM path) ---------

class BareController : public Controller {
 public:
  using Controller::Controller;
  const char* name() const override { return "bare"; }
  std::size_t max_actions_per_round() const override { return 1; }

 protected:
  void decide(SimTime) override {
    obs::ControlDecisionRecord rec;
    rec.action = "hold";
    record_decision(rec);  // no reason on purpose
    ControlAction a;
    a.kind = ControlAction::Kind::kPoolResize;
    a.target = "svc/threads";
    emit(a);  // no reason on purpose
  }
};

TEST(ControllerReasonGuard, EmptyReasonsGetTheSharedDefault) {
  Simulator sim;
  obs::DecisionLog log;
  BareController ctl(sim, sec(1));
  ctl.set_decision_log(&log);
  const auto actions = ctl.round();

  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].reason, "no rationale produced");
  EXPECT_EQ(actions[0].round, 1u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].controller, "bare");
  EXPECT_EQ(log.records()[0].reason, "no rationale produced");
  EXPECT_EQ(log.records()[0].round, 1u);
}

TEST(ControllerReasonGuard, StallRecordIsAppendedByTheBase) {
  Simulator sim;
  obs::DecisionLog log;
  BareController ctl(sim, sec(1));
  ctl.set_decision_log(&log);
  ctl.set_stalled(true);
  EXPECT_TRUE(ctl.round().empty());
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].action, "stalled");
  EXPECT_EQ(log.records()[0].fault_kind, "control_stall");
  EXPECT_EQ(ctl.rounds(), 1u);
  ctl.set_stalled(false);
  EXPECT_EQ(ctl.round().size(), 1u);
  EXPECT_EQ(ctl.rounds(), 2u);
}

// -- the action path: emit() feeds actions() and the listeners alike ---------

/// Emits `round` actions in its round-th round, targets "a<round>.<i>".
class CountingController : public Controller {
 public:
  using Controller::Controller;
  const char* name() const override { return "counting"; }
  std::size_t max_actions_per_round() const override { return 8; }

 protected:
  void decide(SimTime) override {
    for (std::uint64_t i = 0; i < rounds(); ++i) {
      ControlAction a;
      a.kind = ControlAction::Kind::kCores;
      a.target = "a" + std::to_string(rounds()) + "." + std::to_string(i);
      a.reason = "scripted";
      emit(a);
    }
  }
};

TEST(ControllerActionListener, SeesEachEmittedActionOnceStampedInOrder) {
  Simulator sim;
  CountingController ctl(sim, sec(1));
  std::vector<ControlAction> seen;
  ctl.add_action_listener([&](const ControlAction& a) {
    // Already stamped and already in the history when the listener runs.
    EXPECT_EQ(a.at, sim.now());
    EXPECT_EQ(a.round, ctl.rounds());
    ASSERT_FALSE(ctl.actions().empty());
    EXPECT_EQ(ctl.actions().back().target, a.target);
    seen.push_back(a);
  });
  ctl.start();
  sim.run_until(sec(2));  // rounds 1 and 2: 1 + 2 actions
  ASSERT_EQ(seen.size(), 3u);

  ctl.set_stalled(true);
  sim.run_until(sec(3));  // round 3 stalls: nothing emitted
  EXPECT_EQ(ctl.rounds(), 3u);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(ctl.actions().size(), 3u);

  ctl.set_stalled(false);
  const std::span<const ControlAction> fourth = ctl.round();  // 4 actions
  ASSERT_EQ(fourth.size(), 4u);
  EXPECT_EQ(fourth.front().target, "a4.0");
  EXPECT_EQ(fourth.back().target, "a4.3");
  ctl.stop();

  const std::vector<std::string> want{"a1.0", "a2.0", "a2.1", "a4.0",
                                      "a4.1", "a4.2", "a4.3"};
  ASSERT_EQ(seen.size(), want.size());
  ASSERT_EQ(ctl.actions().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(seen[i].target, want[i]);
    EXPECT_EQ(ctl.actions()[i].target, want[i]);
    EXPECT_EQ(ctl.actions()[i].round, seen[i].round);
    EXPECT_EQ(ctl.actions()[i].at, seen[i].at);
  }
  EXPECT_EQ(seen[0].round, 1u);
  EXPECT_EQ(seen[0].at, sec(1));
  EXPECT_EQ(seen[2].round, 2u);
  EXPECT_EQ(seen[2].at, sec(2));
  EXPECT_EQ(seen[3].round, 4u);
  EXPECT_EQ(seen[3].at, sec(3));
}

}  // namespace
}  // namespace sora
