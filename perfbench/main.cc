// The control-loop-on benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--reference-dir DIR] [--out-dir DIR] [--source-rev REV]
//   perfbench --fingerprint --workload W --seed N [--traced]
//             [--sim-seconds X]
//
// Every benchmark run first makes an untimed warm-up run at the reference
// seed, 60 sim-s long, and compares its outputs with the stored warm-up
// fingerprint (reference/<workload>.warmup.txt). With --trace 0 it then
// repeats set-up + run at seed N until S host seconds have passed and
// prints the end-to-end metrics; every repeat must reproduce the first
// one's fingerprint, and at the reference seed the full-length reference
// (reference/<workload>.txt). With --trace 1 it makes one untraced run
// (run time and every profiler-derived count) and one traced run with
// read-only probes at each slice boundary, checks the two fingerprints are
// equal, and prints the per-layer metrics. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Runs advance in 15 s control-period slices (Experiment::run_until in
// kSlice steps runs exactly what run() runs). Each slice is timed and
// followed by the host-speed kernel (host_speed.h), outside the timing.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "host_speed.h"
#include "trace/critical_path.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sora;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

constexpr std::size_t kSetupSamples = 101;
constexpr SimTime kSlice = sec(15);  ///< one control period
constexpr double kWarmupSimSeconds = 60.0;

/// Environment variables Experiment (or the logger / sweep runner) reads
/// silently; each one changes the program being measured.
constexpr const char* kForbiddenEnv[] = {
    "SORA_SEED",          "SORA_SIM_SHARDS", "SORA_SIM_THREADS",
    "SORA_NET_LATENCY_US", "SORA_CTL_PORT",  "SORA_SWEEP_THREADS",
    "SORA_LOG_LEVEL",
};

struct Args {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  int trace = 0;
  bool fingerprint_only = false;
  bool traced = false;
  double sim_seconds = 0.0;
  std::string reference_dir = "perfbench/reference";
  std::string out_dir = ".bench_out";
  std::string source_rev = "unknown";
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload") a.workload = value(i);
      else if (arg == "--seed") a.seed = std::stoull(value(i));
      else if (arg == "--seconds") a.seconds = std::stod(value(i));
      else if (arg == "--trace") a.trace = std::stoi(value(i));
      else if (arg == "--fingerprint") a.fingerprint_only = true;
      else if (arg == "--traced") a.traced = true;
      else if (arg == "--sim-seconds") a.sim_seconds = std::stod(value(i));
      else if (arg == "--reference-dir") a.reference_dir = value(i);
      else if (arg == "--out-dir") a.out_dir = value(i);
      else if (arg == "--source-rev") a.source_rev = value(i);
      else usage_error("unknown argument " + arg);
    }
  } catch (const std::logic_error&) {
    usage_error("malformed numeric argument");
  }
  if (!is_workload(a.workload)) usage_error("unknown workload '" + a.workload + "'");
  if (a.trace != 0 && a.trace != 1) usage_error("--trace must be 0 or 1");
  if (a.seconds <= 0) usage_error("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Process peak resident set (VmHWM), MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string host_fingerprint(const Args& a) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << kCompiler << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"ndebug\": "
#ifdef NDEBUG
     << "true"
#else
     << "false"
#endif
     << ", \"source_rev\": \"" << a.source_rev << "\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Correctness

std::string format_fields(const std::vector<Field>& fields) {
  std::ostringstream os;
  for (const Field& f : fields) os << f.name << ' ' << f.value << '\n';
  return os.str();
}

/// First field that differs between two fingerprints ("" when equal).
std::string first_difference(const std::vector<Field>& want,
                             const std::vector<Field>& got) {
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string wn = i < want.size() ? want[i].name : "<none>";
    const std::string gn = i < got.size() ? got[i].name : "<none>";
    const std::string wv = i < want.size() ? want[i].value : "";
    const std::string gv = i < got.size() ? got[i].value : "";
    if (wn != gn || wv != gv) {
      return (wn == gn ? wn : wn + "/" + gn) + ": expected " + wv + ", got " +
             gv;
    }
  }
  return "";
}

std::vector<Field> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::vector<Field> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out.push_back({line.substr(0, sp), line.substr(sp + 1)});
  }
  return out;
}

/// Conservation checks on one finished run; returns "" or the violation.
std::string check_invariants(Experiment& exp) {
  const ExperimentSummary s = exp.summary();
  const TraceWarehouse& wh = exp.warehouse();
  if (s.injected == 0 || s.completed == 0) return "no requests completed";
  if (exp.recorder().count() + s.shed > s.injected) {
    return "served + shed exceeds injected";
  }
  if (wh.total_stored() != wh.total_evicted() + wh.size()) {
    return "warehouse stored != evicted + retained";
  }
  if (!(s.p50_ms <= s.p99_ms) || !(s.goodput_rps <= s.throughput_rps + 1e-9)) {
    return "summary out of order (p50 > p99 or goodput > throughput)";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Runs

/// Host time of each control-period slice of one run.
struct SliceTimes {
  std::vector<double> wall_s;
  std::vector<double> nominal_s;  ///< at nominal host speed (host_speed.h)
  std::vector<double> kernel_ms;  ///< the calibration after each slice

  double wall_total() const {
    return std::accumulate(wall_s.begin(), wall_s.end(), 0.0);
  }
  double nominal_total() const {
    return std::accumulate(nominal_s.begin(), nominal_s.end(), 0.0);
  }
};

/// Run `exp` to its end in kSlice steps, timing each slice and calibrating
/// the host speed after it. `at_boundary`, when set, runs after the
/// calibration, outside the timing. Slices are recorded as spans when
/// `spans` is non-null.
SliceTimes run_in_slices(Experiment& exp, SpanLog* spans, int parent,
                         const std::function<void(SimTime)>& at_boundary) {
  SliceTimes st;
  const SimTime end = exp.config().duration;
  for (SimTime t = 0; t < end;) {
    t = std::min(t + kSlice, end);
    double wall = 0.0;
    {
      TimedScope s(spans, "run_until", parent);
      exp.run_until(t);
      wall = s.elapsed_s();
    }
    const double kernel = kernel_ms();
    st.wall_s.push_back(wall);
    st.nominal_s.push_back(at_nominal_speed(wall, kernel));
    st.kernel_ms.push_back(kernel);
    if (at_boundary) at_boundary(t);
  }
  return st;
}

struct RepResult {
  SliceTimes times;
  std::vector<Field> fp;
  std::string invariant_error;
  ExperimentSummary summary;
};

SimTime sim_duration(const Args& a) {
  return a.sim_seconds > 0 ? static_cast<SimTime>(a.sim_seconds * 1e6) : 0;
}

/// Set up and run the workload once.
RepResult timed_rep(const Args& a, std::uint64_t seed) {
  RepResult r;
  Workload w = build_workload(a.workload, seed, sim_duration(a), nullptr, -1);
  Experiment& exp = *w.exp;
  r.times = run_in_slices(exp, nullptr, -1, nullptr);
  r.fp = fingerprint(exp);
  r.invariant_error = check_invariants(exp);
  r.summary = exp.summary();
  return r;
}

/// Set-up time of one more build of the workload, at nominal host speed.
double setup_sample(const Args& a) {
  const double wall =
      build_workload(a.workload, a.seed, sim_duration(a), nullptr, -1)
          .setup.total_s;
  return at_nominal_speed(wall, kernel_ms());
}

/// Accumulated read-only probe results of a traced run.
struct ProbeStats {
  std::uint64_t cp_calls = 0;
  double cp_us = 0.0;
  std::uint64_t hops = 0;
  std::uint64_t spans = 0;
  std::uint64_t deadline_calls = 0;
  std::uint64_t deadline_traces = 0;
  std::uint64_t estimate_calls = 0;
  double estimate_us = 0.0;
  std::uint64_t localizer_samples = 0;
  double localizer_ops = 0.0;
  std::size_t heap_entries_max = 0;
};

/// The probes taken at one slice boundary `now`: critical paths of the
/// traces completed in the last slice, deadline propagation for the
/// localized critical service, and the estimator for every managed knob.
void probe(Workload& w, SimTime now, SpanLog& spans, int parent,
           ProbeStats& ps) {
  Experiment& exp = *w.exp;
  {
    TimedScope s(&spans, "probe.critical_path", parent);
    exp.warehouse().for_each_in_window(
        std::max<SimTime>(0, now - kSlice), now, [&](const Trace& t) {
          const Clock::time_point t0 = Clock::now();
          const CriticalPath cp = extract_critical_path(t);
          ps.cp_us += seconds_since(t0) * 1e6;
          ++ps.cp_calls;
          ps.hops += cp.hops.size();
          ps.spans += t.spans.size();
        });
  }
  {
    TimedScope s(&spans, "probe.propagate_deadline", parent);
    ServiceId target = w.fallback_target;
    if (w.sora != nullptr && w.sora->last_report().critical.valid()) {
      target = w.sora->last_report().critical;
    }
    const DeadlineResult dl = propagate_deadline(
        exp.warehouse(), std::max<SimTime>(0, now - w.deadline_window), now,
        target, w.sla, w.deadline);
    ++ps.deadline_calls;
    ps.deadline_traces += dl.traces_used;
  }
  if (w.sora != nullptr) {
    TimedScope s(&spans, "probe.estimate", parent);
    for (const ResourceKnob& knob : w.sora->managed()) {
      const Clock::time_point t0 = Clock::now();
      (void)w.sora->estimator().estimate(knob);
      ps.estimate_us += seconds_since(t0) * 1e6;
      ++ps.estimate_calls;
    }
    ps.localizer_ops +=
        static_cast<double>(w.sora->localizer().last_round_cost().total());
    ++ps.localizer_samples;
  }
  ps.heap_entries_max = std::max(ps.heap_entries_max, exp.sim().heap_entries());
}

/// Run `w` to its end in control-period slices, probing at each boundary.
SliceTimes run_probed(Workload& w, SpanLog& spans, int parent,
                      ProbeStats& ps) {
  return run_in_slices(*w.exp, &spans, parent, [&](SimTime t) {
    const int boundary = spans.begin("probes", parent);
    probe(w, t, spans, boundary, ps);
    spans.end(boundary);
  });
}

/// Sum every series of metric `name` in a registry snapshot.
double sum_series(const obs::MetricsSnapshot& snap, const std::string& name) {
  double total = 0.0;
  for (const obs::SeriesSnapshot& s : snap.series) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// One profiler stage's stats (all zero when the stage never ran).
obs::StageStats stage(const std::vector<obs::StageStats>& stats,
                      const std::string& name) {
  for (const obs::StageStats& s : stats) {
    if (s.stage == name) return s;
  }
  return {};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << std::setprecision(17);
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(28) << m.name << ' '
              << m.value << ' ' << m.unit << '\n';
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Compare `got` with the stored reference `file`; "" or the first
/// differing field.
std::string check_reference(const Args& a, const std::string& file,
                            const std::vector<Field>& got) {
  const std::string path = a.reference_dir + "/" + file;
  const std::vector<Field> want = read_reference(path);
  if (want.empty()) return "no reference fingerprint at " + path;
  const std::string diff = first_difference(want, got);
  return diff.empty() ? "" : file + ": " + diff;
}

/// The untimed warm-up run at the reference seed, checked against the
/// stored warm-up fingerprint. Returns "" or the first differing field.
std::string warmup_check(const Args& a) {
  Args warm = a;
  warm.sim_seconds = kWarmupSimSeconds;
  const RepResult r = timed_rep(warm, kReferenceSeed);
  if (!r.invariant_error.empty()) return r.invariant_error;
  return check_reference(a, a.workload + ".warmup.txt", r.fp);
}

int run_untraced(const Args& a, const std::string& ref_error) {
  std::vector<RepResult> reps;
  const Clock::time_point start = Clock::now();
  while (reps.empty() || seconds_since(start) < a.seconds) {
    reps.push_back(timed_rep(a, a.seed));
    std::cout << "  repeat " << reps.size() << ": run "
              << reps.back().times.wall_total() << " s wall, "
              << reps.back().times.nominal_total() << " s at nominal speed\n";
  }
  std::vector<double> setup_s;
  while (setup_s.size() < kSetupSamples) setup_s.push_back(setup_sample(a));
  // Every repeat runs identical simulated work (the fingerprints below
  // prove it), so each slice counts with its median over the repeats.
  double run_s = 0.0;
  for (std::size_t k = 0; k < reps.front().times.nominal_s.size(); ++k) {
    std::vector<double> slice;
    for (const RepResult& r : reps) slice.push_back(r.times.nominal_s[k]);
    run_s += median(slice);
  }

  std::string error = ref_error;
  std::uint64_t attempted = 0;
  for (const RepResult& r : reps) {
    attempted += r.summary.injected;
    if (error.empty() && !r.invariant_error.empty()) error = r.invariant_error;
    if (error.empty()) {
      const std::string diff = first_difference(reps.front().fp, r.fp);
      if (!diff.empty()) error = "repeat run diverged: " + diff;
    }
  }
  if (error.empty() && a.seed == kReferenceSeed && a.sim_seconds <= 0) {
    error = check_reference(a, a.workload + ".txt", reps.front().fp);
  }
  const ExperimentSummary& s = reps.front().summary;
  std::cout << "reps " << reps.size() << ", setups " << setup_s.size()
            << "; simulated: p50 " << s.p50_ms << " ms, p99 " << s.p99_ms
            << " ms over " << s.completed << " completed requests, "
            << s.shed << " of " << s.injected << " shed\n";
  if (!error.empty()) std::cout << "FAIL: " << error << "\n";
  const std::uint64_t attempted_ops = std::max<std::uint64_t>(1, attempted);
  print_result(error.empty(), attempted_ops, error.empty() ? 0 : attempted_ops,
               {
                   {"run_s", run_s, "s"},
                   {"setup_s", median(setup_s), "s"},
                   {"peak_rss_mb", peak_rss_mb(), "MiB"},
                   {"sim_goodput_rps", s.goodput_rps, "1/s"},
               });
  return error.empty() ? 0 : 1;
}

int run_traced(const Args& a, const std::string& ref_error) {
  std::string error = ref_error;

  // Untraced run: run time and every profiler-derived count (the probes
  // below go through the same global profiler scopes).
  Workload u = build_workload(a.workload, a.seed, sim_duration(a), nullptr, -1);
  const SetupTimes setup = u.setup;
  const SliceTimes untraced = run_in_slices(*u.exp, nullptr, -1, nullptr);
  const double run_s = untraced.wall_total();
  Experiment& exp = *u.exp;
  const ExperimentSummary sum = exp.summary();
  const std::vector<Field> untraced_fp = fingerprint(exp);
  if (error.empty()) error = check_invariants(exp);
  exp.app().publish_metrics();
  const obs::MetricsSnapshot snap = exp.app().metrics().snapshot();
  const std::vector<obs::StageStats>& prof = sum.controller_overhead;
  const obs::StageStats cp = stage(prof, "trace.critical_path");
  const obs::StageStats round = stage(prof, "sora.control_round");
  const obs::StageStats dprop = stage(prof, "sora.deadline_prop");
  const double stored = static_cast<double>(exp.warehouse().total_stored());
  const double evicted = static_cast<double>(exp.warehouse().total_evicted());
  const double events = static_cast<double>(exp.sim().events_executed());
  const double cancelled = static_cast<double>(exp.sim().events_cancelled());
  const double decisions = static_cast<double>(exp.decision_log().size());
  const double valid = sum_series(snap, "sora.estimates_valid");
  const double invalid = sum_series(snap, "sora.estimate_failures");
  const double admitted = sum_series(snap, "admission.admitted");
  const double shed_adm = sum_series(snap, "admission.shed");
  u = Workload{};

  // Traced run: the same workload in control-period slices.
  SpanLog spans;
  const int root = spans.begin("traced_run");
  const int setup_span = spans.begin("setup", root);
  Workload t = build_workload(a.workload, a.seed, sim_duration(a), &spans,
                              setup_span);
  spans.end(setup_span);
  ProbeStats ps;
  const SliceTimes traced = run_probed(t, spans, root, ps);
  spans.end(root);
  const std::string diff = first_difference(untraced_fp, fingerprint(*t.exp));
  if (error.empty() && !diff.empty()) {
    error = "traced run diverged from untraced: " + diff;
  }
  if (error.empty() && a.seed == kReferenceSeed && a.sim_seconds <= 0) {
    error = check_reference(a, a.workload + ".txt", untraced_fp);
  }
  t = Workload{};

  std::filesystem::create_directories(a.out_dir);
  const std::string span_path = a.out_dir + "/" + a.workload + "_seed" +
                                std::to_string(a.seed) + "_spans.json";
  {
    std::ofstream os(span_path);
    spans.write_chrome_json(os);
  }
  std::cout << "spans written to " << span_path << "\n";
  if (!error.empty()) std::cout << "FAIL: " << error << "\n";

  const double run_ms = run_s * 1e3;
  const double injected = static_cast<double>(sum.injected);
  const std::uint64_t attempted = std::max<std::uint64_t>(1, sum.injected);
  print_result(
      error.empty(), attempted, error.empty() ? 0 : attempted,
      {
          {"trace.cp_calls", static_cast<double>(cp.calls), "count"},
          {"trace.cp_ms", cp.total_us / 1e3, "ms"},
          {"trace.cp_calls_per_trace",
           ratio(static_cast<double>(cp.calls), stored), "ratio"},
          {"trace.extract_us", ratio(ps.cp_us, static_cast<double>(ps.cp_calls)),
           "us"},
          {"trace.hops_mean",
           ratio(static_cast<double>(ps.hops), static_cast<double>(ps.cp_calls)),
           "count"},
          {"trace.spans_mean",
           ratio(static_cast<double>(ps.spans),
                 static_cast<double>(ps.cp_calls)),
           "count"},
          {"trace.stored", stored, "count"},
          {"trace.evicted", evicted, "count"},
          {"core.control_round_ms_mean", round.mean_us() / 1e3, "ms"},
          {"core.control_round_ms_max", round.max_us / 1e3, "ms"},
          {"core.deadline_prop_ms", dprop.total_us / 1e3, "ms"},
          {"core.deadline_traces_used",
           ratio(static_cast<double>(ps.deadline_traces),
                 static_cast<double>(ps.deadline_calls)),
           "count"},
          {"core.estimate_us",
           ratio(ps.estimate_us, static_cast<double>(ps.estimate_calls)), "us"},
          {"core.localizer_ops",
           ratio(ps.localizer_ops, static_cast<double>(ps.localizer_samples)),
           "count"},
          {"core.estimates_valid_ratio", ratio(valid, valid + invalid),
           "ratio"},
          {"sim.events", events, "count"},
          {"sim.events_cancelled", cancelled, "count"},
          {"sim.cancel_ratio", ratio(cancelled, events + cancelled), "ratio"},
          {"sim.events_per_host_s", ratio(events, run_s), "1/s"},
          {"sim.slice_ms_p50", median(traced.wall_s) * 1e3, "ms"},
          {"sim.slice_ms_max",
           *std::max_element(traced.wall_s.begin(), traced.wall_s.end()) *
               1e3,
           "ms"},
          {"sim.heap_entries_max", static_cast<double>(ps.heap_entries_max),
           "count"},
          {"svc.completions", sum_series(snap, "service.completions"),
           "count"},
          {"svc.cpu_busy_core_s",
           sum_series(snap, "service.cpu_busy_core_us") / 1e6, "core_s"},
          {"svc.pool_waits", sum_series(snap, "pool.waits"), "count"},
          {"svc.pool_wait_s", sum_series(snap, "pool.wait_time_us") / 1e6,
           "sim_s"},
          {"admission.admitted", admitted, "count"},
          {"admission.shed", shed_adm, "count"},
          {"admission.shed_ratio", ratio(shed_adm, admitted + shed_adm),
           "ratio"},
          {"autoscale.rounds", sum_series(snap, "control.rounds"), "count"},
          {"autoscale.actions", sum_series(snap, "control.actions"), "count"},
          {"autoscale.decisions", decisions, "count"},
          {"workload.injected", injected, "count"},
          {"workload.completed", static_cast<double>(sum.completed), "count"},
          {"workload.replay_parse_ms", setup.replay_ms, "ms"},
          {"topo.synthesize_ms", setup.topo_ms, "ms"},
          {"harness.build_ms", setup.build_ms, "ms"},
          {"sim_p50_ms", sum.p50_ms, "sim_ms"},
          {"sim_p99_ms", sum.p99_ms, "sim_ms"},
          {"sim_fail_frac", ratio(static_cast<double>(sum.shed), injected),
           "ratio"},
          {"ledger.control_share", ratio(round.total_us / 1e3, run_ms),
           "ratio"},
          {"ledger.cp_share", ratio(cp.total_us / 1e3, run_ms), "ratio"},
          {"obs.trace_overhead_pct",
           100.0 * ratio(traced.nominal_total() - untraced.nominal_total(),
                         untraced.nominal_total()),
           "%"},
          {"host.run_wall_s", run_s, "s"},
          {"host.kernel_ms", median(untraced.kernel_ms), "ms"},
      });
  return error.empty() ? 0 : 1;
}

int print_fingerprint(const Args& a) {
  std::vector<Field> fp;
  if (a.traced) {
    SpanLog spans;
    Workload w = build_workload(a.workload, a.seed, sim_duration(a), &spans, -1);
    ProbeStats ps;
    run_probed(w, spans, -1, ps);
    fp = fingerprint(*w.exp);
  } else {
    Workload w = build_workload(a.workload, a.seed, sim_duration(a), nullptr, -1);
    w.exp->run();
    fp = fingerprint(*w.exp);
  }
  std::cout << format_fields(fp);
  return 0;
}

int main_impl(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set: Experiment reads it and it changes the program "
                   "being measured\n";
      return 2;
    }
  }
  if (a.fingerprint_only) return print_fingerprint(a);
#ifndef NDEBUG
  std::cerr << "perfbench: refusing timed runs from a build without NDEBUG\n";
  return 2;
#endif
  std::cout << "host " << host_fingerprint(a) << "\n";
  std::cout << "workload " << a.workload << ", seed " << a.seed << ", "
            << (a.trace ? "traced" : "untraced") << "\n";
  const std::string ref_error = warmup_check(a);
  std::cout << "warm-up reference fingerprint (seed " << kReferenceSeed
            << "): " << (ref_error.empty() ? "match" : "MISMATCH: " + ref_error)
            << "\n";
  return a.trace ? run_traced(a, ref_error) : run_untraced(a, ref_error);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
