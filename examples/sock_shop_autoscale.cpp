// Example: coordinated hardware + soft-resource scaling on Sock Shop.
//
// Reproduces the paper's headline scenario in miniature: a FIRM-style
// vertical autoscaler manages the Cart pod's CPU limit while Sora manages
// its server thread pool; the two are linked so every hardware scale event
// triggers proportional soft-resource re-adaptation and model reset.
//
//   ./build/examples/sock_shop_autoscale
#include <iostream>

#include "apps/sock_shop.h"
#include "common/table.h"
#include "harness/experiment.h"

using namespace sora;

int main() {
  sock_shop::Params params;
  params.cart_cores = 2.0;   // initial pod limit
  params.cart_threads = 5;   // pre-profiled for the 2-core limit

  ExperimentConfig cfg;
  cfg.duration = minutes(6);
  cfg.sla = msec(400);
  cfg.seed = 1;
  Experiment exp(sock_shop::make_sock_shop(params), cfg);

  // Steep Tri Phase: two steep overload episodes (paper Figure 10).
  const WorkloadTrace trace(TraceShape::kSteepTriPhase, cfg.duration, 600,
                            2400);
  auto& users = exp.closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse));
  users.follow_trace(trace);

  // Hardware plane: FIRM-like vertical scaler, 2 -> 4 cores.
  FirmOptions firm_opts;
  firm_opts.slo_latency = cfg.sla;
  firm_opts.min_cores = 2.0;
  firm_opts.max_cores = 4.0;
  auto& firm = exp.add_firm(firm_opts);
  firm.manage(exp.app().service("cart"));

  // Soft plane: Sora manages the Cart thread pool.
  SoraFrameworkOptions sora_opts;
  sora_opts.sla = cfg.sla;
  auto& sora = exp.add_sora(sora_opts);
  const ResourceKnob knob = ResourceKnob::entry(exp.app().service("cart"));
  sora.manage(knob);
  Experiment::link(firm, sora);

  exp.track_service("cart");
  exp.run();

  const ExperimentSummary s = exp.summary();
  std::cout << "=== Sock Shop + FIRM + Sora (" << to_sec(cfg.duration)
            << "s simulated) ===\n";
  std::cout << "p95 / p99 latency: " << fmt(s.p95_ms) << " / " << fmt(s.p99_ms)
            << " ms\n";
  std::cout << "goodput (SLA " << to_msec(cfg.sla)
            << "ms): " << fmt(s.goodput_rps) << " req/s\n";

  std::cout << "\nhardware scale events:\n";
  for (const ControlAction& a : firm.actions()) {
    std::cout << "  t=" << fmt(to_sec(a.at), 0) << "s cart cores "
              << a.old_cores << " -> " << a.new_cores << "\n";
  }
  std::cout << "\nsoft-resource adaptations:\n";
  int shown = 0;
  for (const AdaptAction& a : sora.adapter().history()) {
    if (a.type == AdaptAction::Type::kNone) continue;
    std::cout << "  t=" << fmt(to_sec(a.at), 0) << "s cart threads "
              << a.old_size << " -> " << a.new_size << " ("
              << to_string(a.type) << ")\n";
    if (++shown >= 20) break;
  }
  std::cout << "\nfinal: cart " << exp.app().service("cart")->cpu_limit()
            << " cores, " << knob.current_size() << " threads\n";
  return 0;
}
