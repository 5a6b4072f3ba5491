// Performance smoke benchmark — the repo's wall-clock trajectory anchor.
//
// Times the canonical 1-minute Sock Shop cart simulation (the building
// block of every figure/table sweep) and reports engine throughput
// (events/sec, wall-ms per sim-second), then measures the sweep-level
// serial-vs-parallel speedup. Results are APPENDED to BENCH_sim.json — a
// JSON array of runs keyed by git SHA and date — so the repo accumulates a
// perf trajectory across PRs instead of only remembering the last run.
//
// A third probe repeats the engine run with the ctl introspection server
// attached and a 10 Hz /statusz poller hammering it, substantiating the
// claim that live observation does not perturb the hot path (<1% budget).
//
// Every timed probe runs SORA_PERF_SMOKE_REPS times (default 3, floor 3)
// and reports the median rep: single-shot wall timings on a shared CI box
// regularly produced nonsense overhead numbers (the instrumented run
// "faster" than the baseline by double digits).
//
// Usage: perf_smoke [--gate] [output.json]   (default: BENCH_sim.json)
//
// With --gate, the freshly measured engine events/sec is compared against
// the best engine_events_per_sec already committed in the trajectory file;
// a regression beyond SORA_PERF_GATE_PCT percent (default 10) exits 2 — the
// CI perf gate.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "ctl/http.h"
#include "ctl/json_value.h"
#include "ctl/plane.h"
#include "harness/causal_lab.h"
#include "harness/sweep.h"
#include "obs/json.h"
#include "topo/synth.h"

namespace sora::bench {
namespace {

using WallClock = std::chrono::steady_clock;

double elapsed_sec(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

struct EngineResult {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  double wall_sec = 0.0;
  double sim_sec = 0.0;
  double events_per_sec = 0.0;
  double wall_ms_per_sim_sec = 0.0;
};

/// Timed probes repeat and take the median; see the header comment.
int probe_reps() {
  int reps = 3;
  if (const char* env = std::getenv("SORA_PERF_SMOKE_REPS")) {
    reps = std::max(3, std::atoi(env));
  }
  return reps;
}

/// The canonical single run: 1 minute of Sock Shop browse traffic against a
/// 4-core cart with a fixed 12-thread pool (mid-sweep operating point).
/// SORA_PERF_SMOKE_MINUTES lengthens the probe (profiling runs). With
/// `digest`, the causal profiler's per-event digest is folded in — the only
/// hot-path cost causal profiling adds to an instrumented run.
EngineResult run_engine_probe(bool digest = false) {
  sock_shop::Params params;
  params.cart_cores = 4.0;
  params.cart_threads = 12;
  ExperimentConfig ecfg;
  int probe_minutes = 1;
  if (const char* env = std::getenv("SORA_PERF_SMOKE_MINUTES")) {
    probe_minutes = std::max(1, std::atoi(env));
  }
  ecfg.duration = minutes(probe_minutes);
  ecfg.sla = msec(250);
  ecfg.seed = 42;
  Experiment exp(sock_shop::make_sock_shop(params), ecfg);
  exp.closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse));
  if (digest) exp.sim().set_digest_enabled(true);

  const auto start = WallClock::now();
  exp.run();
  EngineResult r;
  r.wall_sec = elapsed_sec(start);
  r.events = exp.sim().events_executed();
  r.cancelled = exp.sim().events_cancelled();
  r.sim_sec = to_sec(exp.sim().now());
  r.events_per_sec = r.wall_sec > 0 ? r.events / r.wall_sec : 0.0;
  r.wall_ms_per_sim_sec =
      r.sim_sec > 0 ? r.wall_sec * 1000.0 / r.sim_sec : 0.0;
  return r;
}

/// Median-by-events/sec over `reps` identical engine probes.
EngineResult median_engine_probe(int reps, bool digest = false) {
  std::vector<EngineResult> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) runs.push_back(run_engine_probe(digest));
  std::sort(runs.begin(), runs.end(),
            [](const EngineResult& a, const EngineResult& b) {
              return a.events_per_sec < b.events_per_sec;
            });
  return runs[runs.size() / 2];
}

struct CtlProbeResult {
  bool ran = false;
  double events_per_sec = 0.0;
  double overhead_pct = 0.0;  ///< slowdown vs the serverless engine probe
  std::uint64_t requests_served = 0;
};

/// The engine probe again, with the introspection server live and a 10 Hz
/// /statusz poller attached for the whole run. The interesting number is
/// the events/sec delta against the serverless probe.
CtlProbeResult run_ctl_overhead_probe_once(double baseline_events_per_sec) {
  sock_shop::Params params;
  params.cart_cores = 4.0;
  params.cart_threads = 12;
  ExperimentConfig ecfg;
  int probe_minutes = 1;
  if (const char* env = std::getenv("SORA_PERF_SMOKE_MINUTES")) {
    probe_minutes = std::max(1, std::atoi(env));
  }
  ecfg.duration = minutes(probe_minutes);
  ecfg.sla = msec(250);
  ecfg.seed = 42;
  Experiment exp(sock_shop::make_sock_shop(params), ecfg);
  exp.closed_loop(600, sec(1), RequestMix(sock_shop::kBrowse));
  ctl::CtlOptions copts;
  copts.port = 0;  // ephemeral: the probe must not collide with a real server
  exp.enable_ctl(copts);
  exp.start_all();

  CtlProbeResult r;
  ctl::CtlServer* server =
      exp.ctl_plane() != nullptr ? exp.ctl_plane()->server() : nullptr;
  if (server == nullptr || !server->running()) return r;
  const int port = server->port();

  std::atomic<bool> done{false};
  std::thread poller([&done, port] {
    while (!done.load(std::memory_order_acquire)) {
      std::string body;
      ctl::http_get("127.0.0.1", port, "/statusz", &body);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const auto start = WallClock::now();
  exp.run();
  const double wall = elapsed_sec(start);
  done.store(true, std::memory_order_release);
  poller.join();

  r.ran = true;
  r.events_per_sec =
      wall > 0 ? static_cast<double>(exp.sim().events_executed()) / wall : 0.0;
  r.requests_served = server->requests_served();
  if (baseline_events_per_sec > 0 && r.events_per_sec > 0) {
    r.overhead_pct =
        (1.0 - r.events_per_sec / baseline_events_per_sec) * 100.0;
  }
  return r;
}

/// Median-by-events/sec over `reps` ctl probes. A rep whose server failed
/// to bind is excluded; the probe reports ran=false only if every rep did.
CtlProbeResult run_ctl_overhead_probe(int reps,
                                      double baseline_events_per_sec) {
  std::vector<CtlProbeResult> runs;
  for (int i = 0; i < reps; ++i) {
    CtlProbeResult r = run_ctl_overhead_probe_once(baseline_events_per_sec);
    if (r.ran) runs.push_back(r);
  }
  if (runs.empty()) return CtlProbeResult{};
  std::sort(runs.begin(), runs.end(),
            [](const CtlProbeResult& a, const CtlProbeResult& b) {
              return a.events_per_sec < b.events_per_sec;
            });
  return runs[runs.size() / 2];
}

struct CausalProbeResult {
  double digest_events_per_sec = 0.0;
  double digest_overhead_pct = 0.0;  ///< vs the digest-off engine probe
  double round_wall_sec = 0.0;       ///< one serial profiling round
  std::uint64_t round_runs = 0;      ///< baseline + control + counterfactuals
};

/// Cost of causal profiling when it is switched ON: the digest-instrumented
/// engine probe (median of `reps`), plus one serial CausalLab round on a
/// short cart scenario (baseline + control re-run + 3 counterfactuals).
CausalProbeResult run_causal_probe(int reps, double baseline_events_per_sec) {
  CausalProbeResult r;
  const EngineResult digest = median_engine_probe(reps, /*digest=*/true);
  r.digest_events_per_sec = digest.events_per_sec;
  if (baseline_events_per_sec > 0 && digest.events_per_sec > 0) {
    r.digest_overhead_pct =
        (1.0 - digest.events_per_sec / baseline_events_per_sec) * 100.0;
  }

  CausalLabOptions opts;
  opts.checkpoint = sec(10);
  opts.speedup_factors = {0.9};
  opts.pool_delta = 2;
  opts.cap_delta = 0;
  opts.services = {"cart"};
  opts.threads = 1;
  opts.scenario = "perf_probe";
  CausalLab lab(
      [] {
        sock_shop::Params params;
        params.cart_cores = 4.0;
        params.cart_threads = 12;
        ExperimentConfig ecfg;
        ecfg.duration = sec(20);
        ecfg.sla = msec(250);
        ecfg.seed = 42;
        auto exp = std::make_unique<Experiment>(
            sock_shop::make_sock_shop(params), ecfg);
        exp->closed_loop(400, sec(1), RequestMix(sock_shop::kBrowse));
        return exp;
      },
      opts);
  const auto start = WallClock::now();
  const obs::CausalProfile profile = lab.run();
  r.round_wall_sec = elapsed_sec(start);
  r.round_runs = 2 + profile.effects.size();
  return r;
}

struct TopoSynthProbeResult {
  int services = 0;
  double wall_sec = 0.0;
  double services_per_sec = 0.0;
};

/// Deterministic topology synthesis throughput: wall clock of one
/// 2000-service synthesize() call (median of `reps`). Planet-scale benches
/// and the CI smoke build their graphs this way, so a synthesis slowdown
/// shows up here before it shows up as bench timeouts.
TopoSynthProbeResult run_topo_synth_probe(int reps) {
  TopoSynthProbeResult r;
  r.services = 2000;
  topo::TopologyConfig cfg;
  cfg.seed = 1;
  cfg.services = r.services;
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = WallClock::now();
    const topo::Topology topo = topo::synthesize(cfg);
    walls.push_back(elapsed_sec(start));
    if (static_cast<int>(topo.app.services.size()) != r.services) return r;
  }
  std::sort(walls.begin(), walls.end());
  r.wall_sec = walls[walls.size() / 2];
  r.services_per_sec = r.wall_sec > 0 ? r.services / r.wall_sec : 0.0;
  return r;
}

/// One sweep unit: a short cart run at a thread-pool setting derived from
/// the index. Returns the summary so the parity between serial and
/// parallel execution is checked on real output, not just timing.
ExperimentSummary run_sweep_point(std::size_t index) {
  sock_shop::Params params;
  params.cart_cores = 4.0;
  params.cart_threads = 4 + static_cast<int>(index) * 4;
  ExperimentConfig ecfg;
  ecfg.duration = sec(20);
  ecfg.sla = msec(250);
  ecfg.seed = 1000 + index;
  Experiment exp(sock_shop::make_sock_shop(params), ecfg);
  exp.closed_loop(400, sec(1), RequestMix(sock_shop::kBrowse));
  exp.run();
  return exp.summary();
}

struct SweepResult {
  std::size_t runs = 0;
  double serial_sec = 0.0;
  double parallel_sec = 0.0;
  double speedup = 0.0;
  int workers = 0;
  bool identical = true;  ///< parallel summaries match serial bit-for-bit
};

bool same_sim_outputs(const ExperimentSummary& a, const ExperimentSummary& b) {
  return a.injected == b.injected && a.completed == b.completed &&
         a.shed == b.shed && a.mean_ms == b.mean_ms && a.p50_ms == b.p50_ms &&
         a.p95_ms == b.p95_ms && a.p99_ms == b.p99_ms &&
         a.goodput_rps == b.goodput_rps &&
         a.throughput_rps == b.throughput_rps &&
         a.good_fraction == b.good_fraction &&
         a.slo_episodes == b.slo_episodes;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Short git SHA of HEAD, or "unknown" outside a git checkout.
std::string git_sha() {
  std::string sha = "unknown";
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      const std::string line = trim(buf);
      if (!line.empty()) sha = line;
    }
    ::pclose(p);
  }
  return sha;
}

std::string today_utc() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", &tm);
  return buf;
}

/// Append `entry` to the JSON trajectory array at `path`. A legacy
/// single-object file becomes the first element; a missing or unreadable
/// file starts a fresh array.
void append_trajectory(const std::string& path, const std::string& entry) {
  std::string existing;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    existing = trim(buf.str());
  }
  std::ofstream os(path, std::ios::trunc);
  os << "[\n";
  if (existing.size() >= 2 && existing.front() == '[' &&
      existing.back() == ']') {
    const std::string body =
        trim(existing.substr(1, existing.size() - 2));
    if (!body.empty()) os << body << ",\n";
  } else if (!existing.empty() && existing.front() == '{') {
    os << existing << ",\n";
  }
  os << entry << "\n]\n";
}

/// Trajectory schema check: every committed entry must carry the keys the
/// perf gate and trajectory tooling key on. Returns "" when the file is
/// absent/empty or every entry validates; otherwise the first problem.
std::string validate_trajectory(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = trim(buf.str());
  if (text.empty()) return "";
  ctl::JsonValue doc;
  if (!ctl::parse_json(text, &doc)) return "unparsable JSON";
  if (doc.kind() != ctl::JsonValue::Kind::kArray) return "not a JSON array";
  static const char* const kRequired[] = {"bench", "git_sha", "date",
                                          "engine_events_per_sec"};
  // An instrumented run that is >50% slower — or any amount "faster" —
  // than its own baseline is a measurement artifact, not a result; such
  // entries poison the trajectory and must not be committed.
  static const char* const kOverheadKeys[] = {"ctl_overhead_pct",
                                              "causal_digest_overhead_pct"};
  std::size_t i = 0;
  for (const auto& entry : doc.as_array()) {
    for (const char* key : kRequired) {
      if (!entry.has(key)) {
        return "entry " + std::to_string(i) + " missing \"" + key + "\"";
      }
    }
    if (!(entry["engine_events_per_sec"].as_number() > 0)) {
      return "entry " + std::to_string(i) +
             ": engine_events_per_sec not positive";
    }
    for (const char* key : kOverheadKeys) {
      if (entry.has(key) && std::abs(entry[key].as_number()) > 50.0) {
        return "entry " + std::to_string(i) + ": |" + key +
               "| > 50% — suspect measurement";
      }
    }
    if (entry.has("topo_synth_services_per_sec") &&
        !(entry["topo_synth_services_per_sec"].as_number() > 0)) {
      return "entry " + std::to_string(i) +
             ": topo_synth_services_per_sec not positive";
    }
    ++i;
  }
  return "";
}

/// Best engine_events_per_sec across the committed trajectory entries
/// (0 when the file is missing, unparsable, or empty).
double best_trajectory_events_per_sec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::ostringstream buf;
  buf << in.rdbuf();
  ctl::JsonValue doc;
  if (!ctl::parse_json(buf.str(), &doc)) return 0.0;
  double best = 0.0;
  if (doc.kind() == ctl::JsonValue::Kind::kArray) {
    for (const auto& entry : doc.as_array()) {
      best = std::max(best, entry["engine_events_per_sec"].as_number());
    }
  } else {
    best = doc["engine_events_per_sec"].as_number();
  }
  return best;
}

SweepResult run_sweep_probe() {
  SweepResult r;
  r.runs = 8;
  r.workers = SweepRunner::default_worker_count();

  auto serial_start = WallClock::now();
  SweepRunner serial(1);
  const auto serial_results =
      serial.map(r.runs, [](std::size_t i) { return run_sweep_point(i); });
  r.serial_sec = elapsed_sec(serial_start);

  auto parallel_start = WallClock::now();
  SweepRunner parallel(r.workers);
  const auto parallel_results =
      parallel.map(r.runs, [](std::size_t i) { return run_sweep_point(i); });
  r.parallel_sec = elapsed_sec(parallel_start);

  r.speedup = r.parallel_sec > 0 ? r.serial_sec / r.parallel_sec : 0.0;
  for (std::size_t i = 0; i < r.runs; ++i) {
    if (!same_sim_outputs(serial_results[i], parallel_results[i])) {
      r.identical = false;
    }
  }
  return r;
}

int main_impl(int argc, char** argv) {
  print_header("perf_smoke: engine throughput + sweep speedup",
               "Emits BENCH_sim.json (the repo's perf trajectory)");

  bool gate = false;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else {
      out_path = arg;
    }
  }
  // Gate mode refuses to extend a malformed trajectory: catching a bad
  // entry here (hand-edit, merge damage) beats silently gating against it.
  if (gate) {
    const std::string problem = validate_trajectory(out_path);
    if (!problem.empty()) {
      std::cout << "perf gate: FAIL — malformed trajectory " << out_path
                << ": " << problem << "\n";
      return 2;
    }
  }
  // Read the best committed entry BEFORE appending this run's.
  const double best_prior =
      gate ? best_trajectory_events_per_sec(out_path) : 0.0;

  const int reps = probe_reps();
  const EngineResult engine = median_engine_probe(reps);
  std::cout << "engine probe (1-min cart sim, median of " << reps
            << "):\n"
            << "  events executed : " << engine.events << "\n"
            << "  events cancelled: " << engine.cancelled << "\n"
            << "  wall clock      : " << fmt(engine.wall_sec, 3) << " s\n"
            << "  events/sec      : " << fmt(engine.events_per_sec / 1e6, 3)
            << " M\n"
            << "  wall ms / sim s : " << fmt(engine.wall_ms_per_sim_sec, 2)
            << "\n";

  const CtlProbeResult ctl =
      run_ctl_overhead_probe(reps, engine.events_per_sec);
  std::cout << "\nctl overhead probe (same sim, live server + 10 Hz poller, "
               "median of " << reps << "):\n";
  if (ctl.ran) {
    std::cout << "  events/sec      : " << fmt(ctl.events_per_sec / 1e6, 3)
              << " M\n"
              << "  requests served : " << ctl.requests_served << "\n"
              << "  overhead        : " << fmt(ctl.overhead_pct, 2)
              << " % (budget: < 1%)\n";
  } else {
    std::cout << "  skipped (server failed to bind)\n";
  }

  const CausalProbeResult causal =
      run_causal_probe(reps, engine.events_per_sec);
  std::cout << "\ncausal probe (digest-instrumented engine + 1 serial round):\n"
            << "  digest events/s : " << fmt(causal.digest_events_per_sec / 1e6, 3)
            << " M (overhead " << fmt(causal.digest_overhead_pct, 2) << " %)\n"
            << "  round wall      : " << fmt(causal.round_wall_sec, 3) << " s ("
            << causal.round_runs << " runs of a 20-s scenario)\n";

  const TopoSynthProbeResult topo_synth = run_topo_synth_probe(reps);
  std::cout << "\ntopology synthesis probe (" << topo_synth.services
            << " services, median of " << reps << "):\n"
            << "  wall clock      : " << fmt(topo_synth.wall_sec * 1000.0, 2)
            << " ms\n"
            << "  services/sec    : "
            << fmt(topo_synth.services_per_sec / 1e3, 1) << " K\n";

  const SweepResult sweep = run_sweep_probe();
  std::cout << "\nsweep probe (" << sweep.runs << " independent 20-s runs, "
            << sweep.workers << " worker(s)):\n"
            << "  serial          : " << fmt(sweep.serial_sec, 3) << " s\n"
            << "  parallel        : " << fmt(sweep.parallel_sec, 3) << " s\n"
            << "  speedup         : " << fmt(sweep.speedup, 2) << "x\n"
            << "  outputs match   : " << (sweep.identical ? "yes" : "NO")
            << "\n";

  obs::JsonObject o;
  o.field("bench", "perf_smoke");
  o.field("git_sha", git_sha());
  o.field("date", today_utc());
  o.field("engine_events", engine.events);
  o.field("engine_events_cancelled", engine.cancelled);
  o.field("engine_wall_sec", engine.wall_sec);
  o.field("engine_events_per_sec", engine.events_per_sec);
  o.field("engine_wall_ms_per_sim_sec", engine.wall_ms_per_sim_sec);
  o.field("probe_reps", static_cast<std::uint64_t>(reps));
  if (topo_synth.services_per_sec > 0) {
    o.field("topo_synth_services", static_cast<std::uint64_t>(topo_synth.services));
    o.field("topo_synth_wall_sec", topo_synth.wall_sec);
    o.field("topo_synth_services_per_sec", topo_synth.services_per_sec);
  }
  o.field("sweep_runs", static_cast<std::uint64_t>(sweep.runs));
  o.field("sweep_workers", static_cast<std::uint64_t>(sweep.workers));
  o.field("sweep_serial_sec", sweep.serial_sec);
  o.field("sweep_parallel_sec", sweep.parallel_sec);
  o.field("sweep_speedup", sweep.speedup);
  o.field("sweep_outputs_match", sweep.identical);
  if (ctl.ran) {
    o.field("ctl_events_per_sec", ctl.events_per_sec);
    o.field("ctl_overhead_pct", ctl.overhead_pct);
    o.field("ctl_requests_served", ctl.requests_served);
  }
  o.field("causal_digest_events_per_sec", causal.digest_events_per_sec);
  o.field("causal_digest_overhead_pct", causal.digest_overhead_pct);
  o.field("causal_round_wall_sec", causal.round_wall_sec);
  o.field("causal_round_runs", causal.round_runs);
  o.field("host_hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  append_trajectory(out_path, o.str());
  std::cout << "\nappended to " << out_path << "\n";

  // Re-validate with this run's entry included: a fresh suspect overhead
  // measurement must fail the gate, not get committed for the next run to
  // trip over.
  if (gate) {
    const std::string problem = validate_trajectory(out_path);
    if (!problem.empty()) {
      std::cout << "perf gate: FAIL — " << problem << "\n";
      return 2;
    }
  }

  if (gate) {
    double pct = 10.0;
    if (const char* env = std::getenv("SORA_PERF_GATE_PCT")) {
      const double v = std::atof(env);
      if (v > 0) pct = v;
    }
    if (best_prior <= 0) {
      std::cout << "perf gate: no prior trajectory entry; nothing to gate\n";
    } else {
      const double floor = best_prior * (1.0 - pct / 100.0);
      std::cout << "perf gate: current " << fmt(engine.events_per_sec / 1e6, 3)
                << " M ev/s vs best committed "
                << fmt(best_prior / 1e6, 3) << " M (floor "
                << fmt(floor / 1e6, 3) << " M, -" << fmt(pct, 0) << "%)\n";
      if (engine.events_per_sec < floor) {
        std::cout << "perf gate: FAIL — events/sec regressed beyond "
                  << fmt(pct, 0) << "%\n";
        return 2;
      }
      std::cout << "perf gate: OK\n";
    }
  }
  return sweep.identical ? 0 : 1;
}

}  // namespace
}  // namespace sora::bench

int main(int argc, char** argv) { return sora::bench::main_impl(argc, argv); }
