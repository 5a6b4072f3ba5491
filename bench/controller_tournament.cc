// Controller tournament — every control plane over the same obstacle
// course: {controllers} x {trace shapes} x {faults on/off} x {admission
// on/off}, one Sock Shop cart cell each, fanned over SweepRunner. Emits the
// per-cell grid, the aggregated league table (EXPERIMENTS.md), and
// machine-checkable VERDICT lines for the overload operating point
// (peak load ~2x the cart knee).
//
// Smoke mode (--smoke): a 1-minute 2x2 slice
// (sora + k8s-hpa, one trace, faults x admission) for CI gating.
#include "bench_util.h"

#include <cstring>

#include "harness/tournament.h"

namespace sora::bench {
namespace {

int main_impl(bool smoke) {
  print_header(smoke ? "Controller tournament (smoke slice)"
                     : "Controller tournament",
               "Six+ control planes, shared Controller contract, one league");
  print_ctl_hint();

  std::vector<std::string> controllers;
  std::vector<TraceShape> shapes;
  SimTime duration = 0;
  if (smoke) {
    controllers = {"sora", "k8s-hpa"};
    shapes = {TraceShape::kSteepTriPhase};
    duration = minutes(1);
  } else {
    controllers = tournament_controllers();
    shapes = {TraceShape::kLargeVariation, TraceShape::kBigSpike,
              TraceShape::kDualPhase, TraceShape::kSteepTriPhase};
    duration = minutes(3);
  }

  const auto cells = tournament_grid(controllers, shapes, duration, 42);
  std::cout << "\nrunning " << cells.size() << " cells ("
            << controllers.size() << " controllers x " << shapes.size()
            << " traces x faults on/off x admission on/off, "
            << duration / minutes(1) << " min each)...\n";
  const auto rows = run_tournament(cells);

  emit_table(rows_table(rows), smoke ? "controller_tournament_smoke_cells"
                                     : "controller_tournament_cells");
  std::cout << "\nLeague (mean across cells, ranked by goodput):\n";
  const auto standings = league(rows);
  emit_table(league_table(standings), smoke ? "controller_tournament_smoke"
                                            : "controller_tournament");

  // Machine-checkable verdicts at the overload operating point. The CI
  // smoke job greps these lines; the full run substantiates the league
  // table committed to EXPERIMENTS.md.
  auto mean_goodput = [&rows](const std::string& name, bool admission) {
    double sum = 0.0;
    int n = 0;
    for (const auto& row : rows) {
      if (row.cell.controller == name && row.cell.admission == admission) {
        sum += row.goodput_rps;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double hpa = mean_goodput("k8s-hpa", false);
  const double sora_adm = mean_goodput("sora", true);
  std::cout << "\nVERDICT league_nonempty " << (standings.empty() ? "FAIL" : "PASS")
            << " (" << standings.size() << " controllers, " << rows.size()
            << " cells)\n";
  int fails = standings.empty() ? 1 : 0;
  std::cout << "VERDICT sora_beats_hpa "
            << (sora_adm > hpa ? "PASS" : "FAIL") << " (knee-coupled sora "
            << fmt(sora_adm, 1) << " r/s vs hpa " << fmt(hpa, 1) << " r/s)"
            << (smoke ? " [informational in smoke]" : "") << "\n";
  if (!smoke && sora_adm <= hpa) ++fails;
  if (!smoke) {
    const double at = mean_goodput("autothrottle", true);
    const double ls = mean_goodput("lsram", false);
    const bool new_baseline_wins = at > hpa || ls > hpa;
    std::cout << "VERDICT new_baseline_beats_hpa "
              << (new_baseline_wins ? "PASS" : "FAIL") << " (autothrottle "
              << fmt(at, 1) << ", lsram " << fmt(ls, 1) << " vs hpa "
              << fmt(hpa, 1) << " r/s)\n";
    if (!new_baseline_wins) ++fails;
  }
  return fails;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return sora::bench::main_impl(smoke);
}
