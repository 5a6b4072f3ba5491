// Figure 12 — Kubernetes HPA vs. HPA+Sora under system-state drifting:
// the Read-Home-Timeline request type flips from light (2 posts) to heavy
// (10 posts) mid-run while HPA scales Post Storage horizontally.
//
// HPA alone adds Post Storage replicas but the Home-Timeline ClientPool
// stays at its pre-profiled size: the static connections bottleneck the
// scaled-out tier, especially after requests turn heavy. Sora tracks the
// replica count (proportional rescale on scale events) and re-learns the
// optimum after the drift.
#include "bench_util.h"

namespace sora::bench {
namespace {

struct DriftResult {
  ExperimentSummary summary;
  std::vector<ServiceTimelinePoint> home_timeline;  // edge pool view
  std::vector<ServiceTimelinePoint> post_storage;   // CPU + replicas view
  std::vector<TimelineBucket> client;
  std::size_t slo_episodes = 0;
  std::string top_episode_consumer;  // during the longest e2e episode
};

DriftResult run(bool with_sora, std::uint64_t seed,
                const std::string& telemetry_dir) {
  social_network::Params params;
  params.post_storage_connections = 10;  // pre-profiled for light requests
  params.post_storage_cores = 2.0;
  ExperimentConfig ecfg;
  ecfg.duration = minutes(8);
  ecfg.sla = msec(400);
  ecfg.seed = seed;
  Experiment exp(social_network::make_social_network(params), ecfg);

  // Peak sized so the post-drift (heavy) demand is feasible for the
  // scaled-out tier with an adapted connection pool (~1100 req/s vs. the
  // ~770 req/s the static 10-connection gate can admit) — the same
  // headroom relationship as the paper's testbed.
  const WorkloadTrace trace(TraceShape::kLargeVariation, ecfg.duration, 400,
                            1300);
  auto& users = exp.closed_loop(
      400, sec(1), RequestMix(social_network::kReadTimelineLight));
  users.follow_trace(trace);
  // State drift at 5/8 of the run (the paper flips at 450s of 720s).
  exp.sim().post_at(ecfg.duration * 5 / 8, [&users] {
    users.set_mix(RequestMix(social_network::kReadTimelineHeavy));
  });

  HpaOptions ho;
  ho.max_replicas = 4;
  // Kubernetes' default downscale stabilization is 5 minutes; a fast
  // scale-in right at the drift would be a config artifact, not a finding.
  ho.downscale_stabilization_periods = 20;
  auto& hpa = exp.add_hpa(ho);
  hpa.manage(exp.app().service("post-storage"));

  if (with_sora) {
    SoraFrameworkOptions so;
    so.sla = ecfg.sla;
    // Operator floor: never shrink below the pre-profiled baseline (the
    // paper's Sora likewise never drops the Post Storage pool below the
    // 10-connection light-request optimum, Figure 12(iii)).
    so.adapter.min_size = params.post_storage_connections;
    auto& sora = exp.add_sora(so);
    sora.manage(
        ResourceKnob::edge(exp.app().service("home-timeline"), "post-storage"));
    Experiment::link(hpa, sora);
  }

  exp.track_service("home-timeline", "post-storage");
  exp.track_service("post-storage");
  if (!telemetry_dir.empty()) {
    SloAnalyticsOptions slo;
    slo.attribution_window = sec(15);
    exp.enable_slo_analytics(slo);
  }
  exp.run();

  if (!telemetry_dir.empty()) {
    std::filesystem::create_directories(telemetry_dir);
    const std::string tag = with_sora ? "sora" : "hpa";
    const std::string base = telemetry_dir + "/" + tag;
    const std::string title = "Social Network drift, " + tag + " run";
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
    {
      std::ofstream os(base + "_decisions.jsonl");
      exp.export_decision_log(os);
    }
  }

  DriftResult out;
  out.summary = exp.summary();
  out.home_timeline = exp.timeline("home-timeline");
  out.post_storage = exp.timeline("post-storage");
  out.client = exp.recorder().timeline();
  if (exp.slo_analytics_enabled()) {
    const auto eps = exp.slo_monitor().episodes_for("e2e");
    out.slo_episodes = eps.size();
    const obs::ViolationEpisode* longest = nullptr;
    for (const auto* ep : eps) {
      if (longest == nullptr || ep->duration() > longest->duration()) {
        longest = ep;
      }
    }
    if (longest != nullptr) {
      out.top_episode_consumer =
          exp.attribution().top_consumer(longest->start, longest->end);
    }
  }
  return out;
}

void print_panes(const std::string& label, const DriftResult& r) {
  const auto rt = column(r.client,
                         [](const TimelineBucket& b) { return b.mean_rt_ms(); });
  const auto gp = column(r.client, [](const TimelineBucket& b) {
    return static_cast<double>(b.good);
  });
  const auto util = column(
      r.post_storage, [](const ServiceTimelinePoint& p) { return p.util_pct; });
  const auto reps = column(r.post_storage, [](const ServiceTimelinePoint& p) {
    return static_cast<double>(p.replicas);
  });
  const auto conns = column(r.home_timeline, [](const ServiceTimelinePoint& p) {
    return static_cast<double>(p.edge_capacity);
  });
  auto vmax = [](const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
  };
  std::cout << "\n--- " << label << " ---\n";
  std::cout << "resp time (max " << fmt(vmax(rt), 0) << " ms)      |"
            << sparkline(rt) << "|\n";
  std::cout << "goodput   (max " << fmt(vmax(gp), 0) << " r/s)     |"
            << sparkline(gp) << "|\n";
  std::cout << "PS util   (max " << fmt(vmax(util), 0) << " %)       |"
            << sparkline(util) << "|\n";
  std::cout << "PS replicas (max " << fmt(vmax(reps), 0) << ")        |"
            << sparkline(reps) << "|\n";
  std::cout << "connections to PS (max " << fmt(vmax(conns), 0) << ") |"
            << sparkline(conns) << "|\n";
}

int main_impl(int argc, char** argv) {
  print_header(
      "Figure 12: Kubernetes HPA vs Sora under system-state drifting",
      "Paper: static 10-conn pool bottlenecks the scaled-out Post Storage "
      "after the light->heavy flip; Sora re-adapts (e.g. 120 conns across "
      "4 replicas)");

  // SLO report / attribution export directory, overridable as argv[1];
  // "-" disables export.
  std::string telemetry_dir = argc > 1 ? argv[1] : "telemetry/fig12";
  if (telemetry_dir == "-") telemetry_dir.clear();

  const DriftResult hpa = run(false, 6, telemetry_dir);
  const DriftResult sora = run(true, 6, telemetry_dir);
  print_panes("(a) Kubernetes HPA only", hpa);
  print_panes("(b) HPA + Sora", sora);

  std::cout << "\n=== Summary (RTT " << 400 << "ms) ===\n";
  TextTable t({"metric", "HPA", "HPA+Sora", "paper shape"});
  t.add_row({"p99 latency [ms]", fmt(hpa.summary.p99_ms, 0),
             fmt(sora.summary.p99_ms, 0), "Sora lower"});
  t.add_row({"avg goodput [req/s]", fmt(hpa.summary.goodput_rps, 0),
             fmt(sora.summary.goodput_rps, 0), "Sora higher"});
  auto final_conns = [](const DriftResult& r) {
    return r.home_timeline.empty() ? 0 : r.home_timeline.back().edge_capacity;
  };
  t.add_row({"final connections to PS", fmt_count(final_conns(hpa)),
             fmt_count(final_conns(sora)),
             "Sora grows with replicas + drift"});
  t.print(std::cout);

  if (!telemetry_dir.empty()) {
    std::cout << "\n=== Streaming SLO analytics ===\n";
    std::cout << "HPA run:  " << hpa.slo_episodes
              << " SLO violation episode(s)";
    if (!hpa.top_episode_consumer.empty()) {
      std::cout << ", longest episode's budget went to "
                << hpa.top_episode_consumer;
    }
    std::cout << "\nSora run: " << sora.slo_episodes
              << " SLO violation episode(s)";
    if (!sora.top_episode_consumer.empty()) {
      std::cout << ", longest episode's budget went to "
                << sora.top_episode_consumer;
    }
    std::cout << "\nSLO reports exported to " << telemetry_dir
              << "/: {hpa,sora}_slo_report.{txt,html}, "
                 "{hpa,sora}_attribution.csv, {hpa,sora}_burn.csv, "
                 "{hpa,sora}_decisions.jsonl\n";
  }
  return 0;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) { return sora::bench::main_impl(argc, argv); }
