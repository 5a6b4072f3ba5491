// Figure 10 — FIRM vs. FIRM+Sora under the "Steep Tri Phase" workload.
//
// FIRM scales the Cart pod's CPU limit (2 -> 4 cores) when the SLO is
// violated, but never touches the 5-thread pool that was pre-profiled for
// the 2-core limit: the extra cores sit idle behind the too-small pool
// (CPU utilization stays well below the new limit) and response time keeps
// spiking. Sora re-adapts the thread pool after each hardware scale, so the
// scaled-up pod is actually exploited.
#include <algorithm>
#include <cstdlib>

#include "bench_util.h"

namespace sora::bench {
namespace {

int main_impl(int argc, char** argv) {
  print_header("Figure 10: FIRM vs Sora, Steep Tri Phase, Cart service",
               "Paper: Sora stabilizes RT; FIRM leaves CPU under-utilized "
               "(~310% of 400%) because the 5-thread pool is never re-adapted");

  CartTraceConfig cfg;
  cfg.shape = TraceShape::kSteepTriPhase;
  cfg.duration = minutes(6);
  cfg.sla = msec(400);
  cfg.base_users = 600;
  cfg.peak_users = 2400;
  cfg.initial_threads = 5;
  cfg.initial_cores = 2.0;
  cfg.max_cores = 4.0;
  // Telemetry export directory (decision log, Chrome trace, timelines,
  // metrics, SLO report + attribution), overridable as argv[1]; "-"
  // disables export. argv[2] optionally shortens the run (minutes) for
  // smoke testing.
  cfg.telemetry_dir = argc > 1 ? argv[1] : "telemetry/fig10";
  if (cfg.telemetry_dir == "-") cfg.telemetry_dir.clear();
  if (argc > 2) cfg.duration = minutes(std::max(1, std::atoi(argv[2])));
  print_ctl_hint();

  cfg.adaptation = SoftAdaptation::kNone;
  cfg.telemetry_tag = "firm";
  const CartTraceResult firm = run_cart_trace(cfg);
  cfg.adaptation = SoftAdaptation::kSora;
  cfg.telemetry_tag = "sora";
  const CartTraceResult sora = run_cart_trace(cfg);

  print_cart_panes("(a) FIRM (hardware-only)", firm);
  print_cart_panes("(b) FIRM + Sora", sora);

  std::cout << "\n=== Summary (RTT " << to_msec(cfg.sla) << "ms) ===\n";
  TextTable t({"metric", "FIRM", "Sora", "paper shape"});
  t.add_row({"p95 latency [ms]", fmt(firm.summary.p95_ms, 0),
             fmt(sora.summary.p95_ms, 0), "Sora lower"});
  t.add_row({"p99 latency [ms]", fmt(firm.summary.p99_ms, 0),
             fmt(sora.summary.p99_ms, 0), "Sora ~2x lower"});
  t.add_row({"avg goodput [req/s]", fmt(firm.summary.goodput_rps, 0),
             fmt(sora.summary.goodput_rps, 0), "Sora higher"});
  t.add_row({"mean latency [ms]", fmt(firm.summary.mean_ms, 0),
             fmt(sora.summary.mean_ms, 0), "Sora lower"});
  t.print(std::cout);

  // The CPU-underutilization signature: during the high phase FIRM's cart
  // runs at a lower fraction of its limit than Sora's.
  auto high_phase_util_fraction = [](const CartTraceResult& r) {
    double frac_sum = 0.0;
    int n = 0;
    for (const auto& p : r.cart) {
      if (p.limit_pct > 250.0) {  // scaled-up phase
        frac_sum += p.util_pct / p.limit_pct;
        ++n;
      }
    }
    return n ? frac_sum / n : 0.0;
  };
  const double firm_frac = high_phase_util_fraction(firm);
  const double sora_frac = high_phase_util_fraction(sora);
  std::cout << "\nCPU utilization fraction of limit while scaled up: FIRM "
            << fmt(100 * firm_frac, 0) << "%, Sora " << fmt(100 * sora_frac, 0)
            << "% (paper: FIRM stuck at ~310/400, Sora saturates)\n";

  // Streaming SLO analytics: burn-rate episodes detected on the FIRM run,
  // and whether the budget attribution blames the same service Sora's
  // localization picked — two independent observability paths agreeing on
  // the culprit.
  if (!cfg.telemetry_dir.empty()) {
    std::cout << "\n=== Streaming SLO analytics ===\n";
    std::cout << "FIRM run: " << firm.episodes.size()
              << " SLO violation episode(s)";
    if (!firm.episodes.empty()) {
      SimTime violated = 0;
      double peak = 0.0;
      for (const auto& ep : firm.episodes) {
        violated += ep.duration();
        peak = std::max(peak, ep.peak_fast_burn);
      }
      std::cout << ", " << fmt(to_sec(violated), 0)
                << " s in violation, peak burn " << fmt(peak, 1);
    }
    std::cout << "\nSora run: " << sora.episodes.size()
              << " SLO violation episode(s)\n";
    if (!firm.episodes.empty() && !firm.top_episode_consumer.empty()) {
      std::cout << "FIRM episode budget attribution blames: "
                << firm.top_episode_consumer << "\n";
      const std::string& localized = sora.localized_critical_service;
      if (!localized.empty()) {
        std::cout << "Sora localization picked:             " << localized
                  << "\n";
        std::cout << (firm.top_episode_consumer == localized
                          ? "MATCH: attribution agrees with localization\n"
                          : "MISMATCH: attribution disagrees with "
                            "localization\n");
      }
    }
  }

  // Section 6 overhead claim: the whole adaptation loop is cheap. The
  // Sora run's simulator accumulated host wall-clock cost per control-plane
  // stage in its own stage table.
  std::cout << "\n=== Controller overhead, Sora run (host wall clock) ===\n";
  obs::StageTable::print(sora.summary.controller_overhead, std::cout);

  if (!cfg.telemetry_dir.empty()) {
    std::cout << "\nTelemetry exported to " << cfg.telemetry_dir
              << "/: {firm,sora}_decisions.jsonl (audit log), "
                 "{firm,sora}_trace.json (load into ui.perfetto.dev), "
                 "{firm,sora}_cart_timeline.csv, {firm,sora}_metrics.jsonl, "
                 "{firm,sora}_slo_report.{txt,html}, "
                 "{firm,sora}_attribution.csv, {firm,sora}_burn.csv\n";
  }
  return 0;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) { return sora::bench::main_impl(argc, argv); }
