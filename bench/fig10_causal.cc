// Figure 10 (causal variant) — what-if profiling of the FIRM+Sora run.
//
// Reuses the Figure 10 scenario (Sock Shop cart, Steep Tri Phase, FIRM
// hardware scaling + Sora soft-resource adaptation) and asks the causal
// question the Pearson localizer can only approximate: which service, if
// actually sped up, would move tail latency? The CausalLab forks the run at
// a checkpoint into counterfactual re-simulations (virtual speedups 0.75 /
// 0.9, entry-pool +/-2) per candidate service, across three load regimes:
//
//   calibrated   the paper's operating point — localizer and causal ground
//                truth should agree (MATCH printed),
//   overload     2x peak users — queueing couples every service's PT to the
//                e2e tail; the bottleneck saturates the correlation,
//   light_load   1/8th the calibrated users — no service clears the
//                localizer's utilization gate, so its verdict falls back to
//                raw PCC over sparse critical-path evidence, where a
//                rarely-sampled side service (tens of hops) posts a
//                spuriously perfect correlation. The counterfactual
//                speedups still identify the real, if now small, lever.
//
// Emits the causal report (text + HTML + profile JSON) with the agreement
// table, and publishes /causalz on the first bound ctl server so sora_top's
// what-if panel has live data.
//
//   argv[1]  telemetry dir (default telemetry/fig10_causal, "-" = none)
//   argv[2]  run length in minutes (default 3)
//   SORA_SWEEP_THREADS     counterfactual fan width (default: hardware
//                          concurrency)
//   SORA_CAUSAL_HOLD_SEC   keep serving /causalz this long after finishing
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "bench_util.h"
#include "harness/causal_lab.h"
#include "obs/causal/report.h"

namespace sora::bench {
namespace {

struct Regime {
  std::string name;
  double peak_users = 2400;
};

/// One un-started Figure-10 experiment (FIRM + Sora on cart). Mirrors
/// run_cart_trace's wiring; the CausalLab re-invokes this for the baseline,
/// the control re-run and every counterfactual.
CausalLab::Builder make_builder(CartTraceConfig cfg) {
  return [cfg]() {
    sock_shop::Params params;
    params.cart_cores = cfg.initial_cores;
    params.cart_threads = cfg.initial_threads;
    ExperimentConfig ecfg;
    ecfg.duration = cfg.duration;
    ecfg.sla = cfg.sla;
    ecfg.seed = cfg.seed;
    auto exp = std::make_unique<Experiment>(sock_shop::make_sock_shop(params),
                                            ecfg);
    const WorkloadTrace trace(cfg.shape, cfg.duration, cfg.base_users,
                              cfg.peak_users);
    auto& users = exp->closed_loop(static_cast<int>(cfg.base_users), sec(1),
                                   RequestMix(sock_shop::kBrowse));
    users.follow_trace(trace);

    FirmOptions fo;
    fo.slo_latency = cfg.sla;
    fo.min_cores = cfg.initial_cores;
    fo.max_cores = cfg.max_cores;
    auto& firm = exp->add_firm(fo);
    firm.manage(exp->app().service("cart"));
    SoraFrameworkOptions so;
    so.sla = cfg.sla;
    auto& fw = exp->add_sora(so);
    fw.manage(ResourceKnob::entry(exp->app().service("cart")));
    Experiment::link(firm, fw);

    return exp;
  };
}

int main_impl(int argc, char** argv) {
  print_header("Figure 10 (causal): virtual-speedup attribution vs Pearson "
               "localization",
               "Counterfactual co-simulation: exact causal what-if effects, "
               "cross-validated against the correlation-based localizer");

  CartTraceConfig cfg;
  cfg.shape = TraceShape::kSteepTriPhase;
  cfg.duration = minutes(3);
  cfg.sla = msec(400);
  cfg.base_users = 600;
  cfg.peak_users = 2400;
  cfg.initial_threads = 5;
  cfg.initial_cores = 2.0;
  cfg.max_cores = 4.0;
  cfg.telemetry_dir = argc > 1 ? argv[1] : "telemetry/fig10_causal";
  if (cfg.telemetry_dir == "-") cfg.telemetry_dir.clear();
  if (argc > 2) cfg.duration = minutes(std::max(1, std::atoi(argv[2])));
  print_ctl_hint();

  const int threads = SweepRunner::default_worker_count();

  const std::vector<Regime> regimes = {
      {"calibrated", cfg.peak_users},
      {"overload", cfg.peak_users * 2},
      {"light_load", 300},
  };

  std::vector<std::unique_ptr<CausalLab>> labs;
  std::vector<obs::CausalProfile> profiles;
  for (const Regime& regime : regimes) {
    CartTraceConfig rc = cfg;
    rc.peak_users = regime.peak_users;
    rc.base_users = std::min(rc.base_users, regime.peak_users);
    CausalLabOptions opts;
    opts.checkpoint = rc.duration * 6 / 10;  // 60% in: past the load ramp
    opts.speedup_factors = {0.75, 0.9};
    opts.pool_delta = 2;
    opts.services = {"front-end", "cart", "catalogue"};
    opts.scenario = regime.name;
    labs.push_back(std::make_unique<CausalLab>(make_builder(rc), opts));
    std::cout << "\n[" << regime.name << "] profiling (checkpoint "
              << fmt(to_sec(opts.checkpoint), 0) << " s, fan " << threads
              << " threads)...\n";
    profiles.push_back(labs.back()->run());
    const obs::CausalProfile& p = profiles.back();
    std::cout << "  control re-run: "
              << (p.control_identical ? "bit-identical" : "DIVERGED")
              << "   causal rank: " << p.ranking_string() << "\n";

    // The observational evidence the Pearson verdict rests on — makes the
    // agreement (or divergence) with the causal rank auditable.
    Experiment& base = labs.back()->baseline();
    if (!base.frameworks().empty()) {
      const CriticalServiceReport& rep =
          base.frameworks().front()->last_report();
      TextTable diag({"service", "util", "pcc", "cp hops", "mean PT [ms]"});
      for (const ServiceDiagnostics& d : rep.services) {
        diag.add_row({base.app().service_name(d.service),
                      fmt(d.utilization, 2), fmt(d.pcc, 3),
                      fmt_count(static_cast<double>(d.cp_appearances)),
                      fmt(d.mean_pt_ms, 2)});
      }
      diag.print(std::cout);
    }
  }

  // All regimes on one /causalz document, served by whichever baseline
  // bound SORA_CTL_PORT first (the first lab's).
  CausalLab::publish(labs.front()->baseline(), profiles);

  obs::CausalReportInputs report;
  report.title = "Figure 10 causal what-if profile";
  report.profiles = &profiles;
  std::cout << "\n";
  write_causal_report_text(report, std::cout);

  // The headline cross-validation verdicts.
  std::cout << "\n";
  for (const obs::CausalProfile& p : profiles) {
    std::cout << "[" << p.scenario << "] "
              << (p.agree ? "MATCH" : "DIVERGE") << ": causal pick '"
              << p.causal_pick << "' vs pearson pick '" << p.pearson_pick
              << "'\n";
  }

  if (!cfg.telemetry_dir.empty()) {
    std::filesystem::create_directories(cfg.telemetry_dir);
    const std::string base = cfg.telemetry_dir + "/causal";
    {
      std::ofstream os(base + "_report.txt");
      write_causal_report_text(report, os);
    }
    {
      std::ofstream os(base + "_report.html");
      write_causal_report_html(report, os);
    }
    {
      std::ofstream os(base + "_profile.json");
      os << CausalLab::profiles_json(profiles) << "\n";
    }
    {
      std::ofstream os(base + "_decisions.jsonl");
      labs.front()->baseline().export_decision_log(os);
    }
    std::cout << "\nTelemetry exported to " << cfg.telemetry_dir
              << "/: causal_report.{txt,html}, causal_profile.json, "
                 "causal_decisions.jsonl\n";
  }

  // Keep the first baseline's ctl server (and its /causalz document) alive
  // for dashboards / the CI smoke poll.
  if (const char* hold = std::getenv("SORA_CAUSAL_HOLD_SEC")) {
    const int hold_sec = std::atoi(hold);
    if (hold_sec > 0) {
      std::cout << "[ctl] holding /causalz for " << hold_sec << " s\n";
      std::cout.flush();
      std::this_thread::sleep_for(std::chrono::seconds(hold_sec));
    }
  }
  return 0;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) { return sora::bench::main_impl(argc, argv); }
