// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "apps/sock_shop.h"
#include "apps/social_network.h"
#include "common/table.h"
#include "harness/experiment.h"
#include "harness/sweep.h"

namespace sora::bench {

/// Goodput of Sock Shop browse traffic with a fixed Cart thread pool, under
/// a closed-loop population. Used by the Figure 3/9 sweeps.
struct SweepResult {
  int pool_size = 0;
  double goodput = 0.0;
  double throughput = 0.0;
  double p99_ms = 0.0;
};

struct CartSweepConfig {
  double cart_cores = 4.0;
  SimTime sla = msec(250);  ///< end-to-end goodput threshold
  int users = 600;
  SimTime think = sec(1);
  SimTime duration = minutes(3);
  std::uint64_t seed = 42;
};

inline SweepResult run_cart_point(const CartSweepConfig& cfg, int threads) {
  sock_shop::Params params;
  params.cart_cores = cfg.cart_cores;
  params.cart_threads = threads;
  ExperimentConfig ecfg;
  ecfg.duration = cfg.duration;
  ecfg.sla = cfg.sla;
  ecfg.seed = cfg.seed;
  Experiment exp(sock_shop::make_sock_shop(params), ecfg);
  exp.closed_loop(cfg.users, cfg.think, RequestMix(sock_shop::kBrowse));
  exp.run();
  const ExperimentSummary s = exp.summary();
  return SweepResult{threads, s.goodput_rps, s.throughput_rps, s.p99_ms};
}

/// Normalize a sweep's goodput column to its maximum (the paper's Figure 3
/// y-axis is normalized goodput).
inline std::vector<double> normalized_goodput(
    const std::vector<SweepResult>& sweep) {
  double max_gp = 0.0;
  for (const auto& r : sweep) max_gp = std::max(max_gp, r.goodput);
  std::vector<double> out;
  out.reserve(sweep.size());
  for (const auto& r : sweep) {
    out.push_back(max_gp > 0 ? r.goodput / max_gp : 0.0);
  }
  return out;
}

inline int argmax_goodput(const std::vector<SweepResult>& sweep) {
  int best = sweep.empty() ? 0 : sweep.front().pool_size;
  double best_gp = -1.0;
  for (const auto& r : sweep) {
    if (r.goodput > best_gp) {
      best_gp = r.goodput;
      best = r.pool_size;
    }
  }
  return best;
}

/// Render an ASCII timeline sparkline (one char per bucket, scaled to max).
inline std::string sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  double max_v = 0.0;
  for (double v : values) max_v = std::max(max_v, v);
  std::string out;
  for (double v : values) {
    const int level =
        max_v > 0 ? static_cast<int>(v / max_v * 7.0 + 0.5) : 0;
    out += kLevels[std::clamp(level, 0, 7)];
  }
  return out;
}

/// Downsample a timeline column for compact printing.
template <typename T, typename Fn>
std::vector<double> column(const std::vector<T>& points, Fn&& get,
                           std::size_t max_points = 72) {
  std::vector<double> out;
  if (points.empty()) return out;
  const std::size_t stride = std::max<std::size_t>(1, points.size() / max_points);
  for (std::size_t i = 0; i < points.size(); i += stride) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(points.size(), i + stride); ++j, ++n) {
      acc += get(points[j]);
    }
    out.push_back(n ? acc / static_cast<double>(n) : 0.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared runner for the Section 5.2 comparisons: Sock Shop Cart under a
// bursty trace, a hardware-only autoscaler, and optionally a soft-resource
// adaptation framework (Sora = SCG, ConScale = SCT).
// ---------------------------------------------------------------------------

enum class HardwareScaler { kNone, kFirm, kVpa, kHpa };
enum class SoftAdaptation { kNone, kSora, kConScale };

struct CartTraceConfig {
  TraceShape shape = TraceShape::kSteepTriPhase;
  SimTime duration = minutes(6);
  SimTime sla = msec(400);
  double base_users = 600;
  double peak_users = 2400;
  HardwareScaler scaler = HardwareScaler::kFirm;
  SoftAdaptation adaptation = SoftAdaptation::kNone;
  int initial_threads = 5;   ///< pre-profiled for the 2-core limit (paper)
  double initial_cores = 2.0;
  double max_cores = 4.0;
  /// Scales every CPU demand. >1 puts per-visit service times in the
  /// tens-of-ms regime of the paper's testbed, where the latency-filtered
  /// (SCG) and latency-agnostic (SCT) models genuinely diverge.
  double demand_scale = 1.0;
  std::uint64_t seed = 42;
  /// When non-empty, the run's telemetry is exported into this directory
  /// (created if needed): <tag>_decisions.jsonl (control-decision audit
  /// log), <tag>_trace.json (Chrome trace_event, load into
  /// ui.perfetto.dev), <tag>_cart_timeline.csv, <tag>_metrics.jsonl, plus
  /// the streaming SLO analytics artifacts <tag>_slo_report.{txt,html},
  /// <tag>_attribution.csv and <tag>_burn.csv.
  std::string telemetry_dir;
  std::string telemetry_tag = "run";
};

struct CartTraceResult {
  ExperimentSummary summary;
  std::vector<ServiceTimelinePoint> cart;        ///< per-second cart state
  std::vector<TimelineBucket> client;            ///< per-second client view
  /// End-to-end SLO violation episodes (empty when telemetry was disabled).
  std::vector<obs::ViolationEpisode> episodes;
  /// Service with the largest attributed budget consumption during the
  /// longest episode ("" when no episode was detected).
  std::string top_episode_consumer;
  /// Most frequent non-empty localization verdict in the decision log
  /// ("" when no control plane localized anything).
  std::string localized_critical_service;
};

/// Most frequent non-empty `critical_service` among a run's decisions — the
/// consensus localization verdict of the control plane.
inline std::string localization_mode(const obs::DecisionLog& log) {
  std::map<std::string, int> votes;
  for (const auto& rec : log.records()) {
    if (!rec.critical_service.empty()) ++votes[rec.critical_service];
  }
  std::string best;
  int best_n = 0;
  for (const auto& [name, n] : votes) {
    if (n > best_n) {
      best = name;
      best_n = n;
    }
  }
  return best;
}

inline CartTraceResult run_cart_trace(const CartTraceConfig& cfg) {
  sock_shop::Params params;
  params.cart_cores = cfg.initial_cores;
  params.cart_threads = cfg.initial_threads;
  params.demand_scale = cfg.demand_scale;
  ExperimentConfig ecfg;
  ecfg.duration = cfg.duration;
  ecfg.sla = cfg.sla;
  ecfg.seed = cfg.seed;
  Experiment exp(sock_shop::make_sock_shop(params), ecfg);

  const WorkloadTrace trace(cfg.shape, cfg.duration, cfg.base_users,
                            cfg.peak_users);
  auto& users = exp.closed_loop(static_cast<int>(cfg.base_users), sec(1),
                                RequestMix(sock_shop::kBrowse));
  users.follow_trace(trace);

  Controller* scaler = nullptr;
  switch (cfg.scaler) {
    case HardwareScaler::kFirm: {
      FirmOptions fo;
      fo.slo_latency = cfg.sla;
      fo.min_cores = cfg.initial_cores;
      fo.max_cores = cfg.max_cores;
      auto& firm = exp.add_firm(fo);
      firm.manage(exp.app().service("cart"));
      scaler = &firm;
      break;
    }
    case HardwareScaler::kVpa: {
      VpaOptions vo;
      vo.min_cores = cfg.initial_cores;
      vo.max_cores = cfg.max_cores;
      auto& vpa = exp.add_vpa(vo);
      vpa.manage(exp.app().service("cart"));
      scaler = &vpa;
      break;
    }
    case HardwareScaler::kHpa: {
      auto& hpa = exp.add_hpa();
      hpa.manage(exp.app().service("cart"));
      scaler = &hpa;
      break;
    }
    case HardwareScaler::kNone:
      break;
  }

  if (cfg.adaptation != SoftAdaptation::kNone) {
    SoraFrameworkOptions so = cfg.adaptation == SoftAdaptation::kConScale
                                  ? make_conscale_options()
                                  : SoraFrameworkOptions{};
    so.sla = cfg.sla;
    auto& fw = exp.add_sora(so);
    fw.manage(ResourceKnob::entry(exp.app().service("cart")));
    if (scaler != nullptr) Experiment::link(*scaler, fw);
  }

  exp.track_service("cart");
  if (!cfg.telemetry_dir.empty()) {
    exp.enable_metrics_sampling(sec(5));
    // Streaming SLO layer: burn-rate monitor + latency-budget attribution,
    // aggregated per control round.
    SloAnalyticsOptions slo;
    slo.attribution_window = sec(15);
    exp.enable_slo_analytics(slo);
  }
  exp.run();

  if (!cfg.telemetry_dir.empty()) {
    std::filesystem::create_directories(cfg.telemetry_dir);
    const std::string base = cfg.telemetry_dir + "/" + cfg.telemetry_tag;
    {
      std::ofstream os(base + "_decisions.jsonl");
      exp.export_decision_log(os);
    }
    {
      std::ofstream os(base + "_trace.json");
      obs::ChromeTraceOptions topt;
      topt.max_traces = 200;  // keep the viewer file small
      exp.export_chrome_trace(os, topt);
    }
    {
      std::ofstream os(base + "_cart_timeline.csv");
      exp.export_timelines_csv("cart", os);
    }
    {
      std::ofstream os(base + "_metrics.jsonl");
      exp.export_metrics_jsonl(os);
    }
    const std::string title =
        "Sock Shop cart, " + cfg.telemetry_tag + " run";
    {
      std::ofstream os(base + "_slo_report.txt");
      exp.export_slo_report_text(os, title);
    }
    {
      std::ofstream os(base + "_slo_report.html");
      exp.export_slo_report_html(os, title);
    }
    {
      std::ofstream os(base + "_attribution.csv");
      exp.export_attribution_csv(os);
    }
    {
      std::ofstream os(base + "_burn.csv");
      exp.export_burn_csv("e2e", os);
    }
  }

  CartTraceResult out;
  out.summary = exp.summary();
  out.cart = exp.timeline("cart");
  out.client = exp.recorder().timeline();
  if (exp.slo_analytics_enabled()) {
    for (const auto* ep : exp.slo_monitor().episodes_for("e2e")) {
      out.episodes.push_back(*ep);
    }
    const obs::ViolationEpisode* longest = nullptr;
    for (const auto& ep : out.episodes) {
      if (longest == nullptr || ep.duration() > longest->duration()) {
        longest = &ep;
      }
    }
    if (longest != nullptr) {
      out.top_episode_consumer =
          exp.attribution().top_consumer(longest->start, longest->end);
    }
  }
  out.localized_critical_service = localization_mode(exp.decision_log());
  return out;
}

/// Print the stacked timeline panes of Figures 10/11 as sparklines.
inline void print_cart_panes(const std::string& label,
                             const CartTraceResult& r) {
  const auto rt = column(r.client,
                         [](const TimelineBucket& b) { return b.mean_rt_ms(); });
  const auto gp = column(r.client, [](const TimelineBucket& b) {
    return static_cast<double>(b.good);
  });
  const auto util = column(
      r.cart, [](const ServiceTimelinePoint& p) { return p.util_pct; });
  const auto limit = column(
      r.cart, [](const ServiceTimelinePoint& p) { return p.limit_pct; });
  const auto threads = column(r.cart, [](const ServiceTimelinePoint& p) {
    return static_cast<double>(p.entry_capacity);
  });
  auto vmax = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  };
  std::cout << "\n--- " << label << " ---\n";
  std::cout << "resp time    (max " << fmt(vmax(rt), 0) << " ms)   |"
            << sparkline(rt) << "|\n";
  std::cout << "goodput      (max " << fmt(vmax(gp), 0) << " r/s)  |"
            << sparkline(gp) << "|\n";
  std::cout << "cart util    (max " << fmt(vmax(util), 0) << " %)    |"
            << sparkline(util) << "|\n";
  std::cout << "cart limit   (max " << fmt(vmax(limit), 0) << " %)    |"
            << sparkline(limit) << "|\n";
  std::cout << "cart threads (max " << fmt(vmax(threads), 0) << ")      |"
            << sparkline(threads) << "|\n";
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "\n================================================================\n"
            << title << "\n" << paper << "\n"
            << "================================================================\n";
}

/// When SORA_CTL_PORT is set, every Experiment in this process tries to
/// start the introspection server on that port at start_all() (the first
/// one wins; parallel sweep workers log a warning and run serverless).
/// Print where to point a browser / sora_top.
inline void print_ctl_hint() {
  if (const char* port = std::getenv("SORA_CTL_PORT")) {
    std::cout << "[ctl] live introspection on http://127.0.0.1:" << port
              << "  (/statusz /metrics /logz /decisions) — dashboard: "
              << "sora_top --port " << port << "\n";
  }
}

/// Emit a result table: aligned text to stdout and, when SORA_BENCH_CSV_DIR
/// is set, a machine-readable copy at <dir>/<name>.csv (directory created if
/// needed). Every bench funnels its tables through here so the console and
/// CSV renderings cannot drift apart.
inline void emit_table(const TextTable& t, const std::string& name) {
  t.print(std::cout);
  if (const char* dir = std::getenv("SORA_BENCH_CSV_DIR")) {
    std::filesystem::create_directories(dir);
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream os(path);
    t.print_csv(os);
    std::cout << "[csv] " << path << "\n";
  }
}

/// One A/B cell of a paired comparison sweep (e.g. FIRM-only vs FIRM+Sora).
struct AbTraceResult {
  CartTraceResult a;
  CartTraceResult b;
};

/// Fan out an A/B comparison: each base config is run twice — once with
/// `adaptation` forced to `a`, once to `b` — through one shared SweepRunner
/// pass, and the results come back pairwise in input order. Tables 2/3 and
/// the overload bench all use this instead of hand-interleaving configs.
inline std::vector<AbTraceResult> run_ab_traces(
    const std::vector<CartTraceConfig>& bases, SoftAdaptation a,
    SoftAdaptation b) {
  std::vector<CartTraceConfig> configs;
  configs.reserve(bases.size() * 2);
  for (CartTraceConfig cfg : bases) {
    cfg.adaptation = a;
    configs.push_back(cfg);
    cfg.adaptation = b;
    configs.push_back(cfg);
  }
  const auto flat = SweepRunner().map(
      configs, [](const CartTraceConfig& cfg) { return run_cart_trace(cfg); });
  std::vector<AbTraceResult> out;
  out.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    out.push_back({flat[2 * i], flat[2 * i + 1]});
  }
  return out;
}

}  // namespace sora::bench
