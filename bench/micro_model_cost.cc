// Micro-benchmarks (google-benchmark) — the online costs Section 6 claims:
// SCG estimation (fit + Kneedle) is sub-second even on large windows, and
// the trace-analysis path (critical path extraction + deadline propagation)
// adds at most tens of milliseconds per control round. After the benchmark
// run, the control-plane stage profiler (fed by the SORA_PROFILE_STAGE
// scopes the benchmarks exercised) reports the per-stage breakdown.
#include <benchmark/benchmark.h>

#include <iostream>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/deadline.h"
#include "core/localization.h"
#include "core/scg_model.h"
#include "obs/profiler.h"
#include "obs/quantile_sketch.h"
#include "trace/critical_path.h"
#include "trace/warehouse.h"

namespace sora {
namespace {

std::vector<SamplePoint> make_scatter(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SamplePoint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SamplePoint p;
    p.at = static_cast<SimTime>(i) * msec(100);
    p.concurrency = rng.uniform(0.5, 30.0);
    p.goodput = 1000.0 * (1.0 - std::exp(-p.concurrency / 4.0)) +
                rng.normal(0.0, 15.0);
    p.throughput = p.goodput + rng.uniform(0.0, 30.0);
    out.push_back(p);
  }
  return out;
}

void BM_ScgEstimate(benchmark::State& state) {
  const auto scatter = make_scatter(static_cast<std::size_t>(state.range(0)), 3);
  ScgModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.estimate(scatter));
  }
  state.SetLabel("points=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ScgEstimate)->Arg(600)->Arg(1800)->Arg(6000)->Arg(18000);

void BM_KneedleOnly(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(i + 1);
    ys[i] = 1.0 - std::exp(-xs[i] / 8.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kneedle(xs, ys));
  }
}
BENCHMARK(BM_KneedleOnly)->Arg(50)->Arg(500);

Trace make_deep_trace(int depth, std::uint64_t id) {
  Trace t;
  t.id = TraceId(id);
  t.start = 0;
  t.end = depth * 100;
  SimTime lo = 0, hi = static_cast<SimTime>(depth) * 100;
  for (int i = 0; i < depth; ++i) {
    Span s;
    s.id = SpanId(id * 100 + static_cast<std::uint64_t>(i));
    s.trace = t.id;
    s.parent = i == 0 ? SpanId{} : SpanId(id * 100 + static_cast<std::uint64_t>(i - 1));
    s.service = ServiceId(static_cast<std::uint64_t>(i));
    s.arrival = lo;
    s.admitted = lo;
    s.departure = hi;
    s.downstream_wait = i + 1 < depth ? hi - lo - 40 : 0;
    if (i > 0) {
      t.spans[static_cast<std::size_t>(i - 1)].children.push_back(
          ChildCall{static_cast<std::size_t>(i), 0, lo, hi});
    }
    t.spans.push_back(s);
    lo += 20;
    hi -= 20;
  }
  return t;
}

void BM_CriticalPathExtraction(benchmark::State& state) {
  const Trace t = make_deep_trace(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_critical_path(t));
  }
}
BENCHMARK(BM_CriticalPathExtraction)->Arg(4)->Arg(16)->Arg(64);

// -- Pearson paths: batch recompute vs. streaming co-moments ------------------
//
// The localizer used to rescan every window trace at analyze() time and
// recompute PCC(PT_si, RT_CP) from scratch — O(window) per control round.
// The streaming CorrelationAccumulator absorbs each (pt, rt) pair once at
// trace-store time and finalizes r in O(1) per service per round. The sweep
// shows the round cost of the batch path growing with the window size while
// the streaming finalize stays flat.

std::pair<std::vector<double>, std::vector<double>> make_pt_rt(std::size_t n) {
  Rng rng(23);
  std::vector<double> pt(n), rt(n);
  for (std::size_t i = 0; i < n; ++i) {
    pt[i] = rng.uniform(500.0, 50000.0);                // hop processing, usec
    rt[i] = 3.0 * pt[i] + rng.normal(0.0, 10000.0);     // end-to-end, usec
  }
  return {std::move(pt), std::move(rt)};
}

void BM_PearsonBatchRecompute(benchmark::State& state) {
  // Old per-round cost: correlate the full window again every analyze().
  const auto [pt, rt] = make_pt_rt(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pearson(pt, rt));
  }
  state.SetLabel("window=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PearsonBatchRecompute)->Arg(100)->Arg(500)->Arg(1000)->Arg(5000);

void BM_PearsonStreamingAdd(benchmark::State& state) {
  // New per-trace cost: one add() per critical-path hop at store time.
  const auto [pt, rt] = make_pt_rt(4096);
  CorrelationAccumulator acc;
  std::size_t i = 0;
  for (auto _ : state) {
    acc.add(pt[i & 4095], rt[i & 4095]);
    ++i;
  }
  benchmark::DoNotOptimize(acc.r());
}
BENCHMARK(BM_PearsonStreamingAdd);

void BM_PearsonStreamingFinalize(benchmark::State& state) {
  // New per-round cost: finalize r from the co-moments — O(1), so the
  // window-size sweep is flat (same Args as the batch path for contrast).
  const auto [pt, rt] = make_pt_rt(static_cast<std::size_t>(state.range(0)));
  CorrelationAccumulator acc;
  for (std::size_t i = 0; i < pt.size(); ++i) acc.add(pt[i], rt[i]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.r());
  }
  state.SetLabel("window=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PearsonStreamingFinalize)
    ->Arg(100)->Arg(500)->Arg(1000)->Arg(5000);

// -- percentile paths: sorted-vector vs. quantile sketch ----------------------
//
// The LatencyRecorder used to keep every sample and re-sort on each
// percentile query — O(n log n) per query and O(n) memory. The sketch makes
// the query O(buckets) and memory constant. These two benchmarks show the
// before/after at growing sample counts.

std::vector<double> make_latencies(std::size_t n) {
  Rng rng(17);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rng.lognormal_mean_cv(250000.0, 1.2));  // ~250ms, in usec
  }
  return out;
}

void BM_PercentileSortedVector(benchmark::State& state) {
  // The pre-sketch LatencyRecorder::percentile_ms path: copy + full sort
  // of the sample vector on every query.
  const auto xs = make_latencies(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(percentile(xs, 99.0));
  }
  state.SetLabel("samples=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PercentileSortedVector)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PercentileQuantileSketch(benchmark::State& state) {
  obs::QuantileSketch sk(0.01);
  for (double v : make_latencies(static_cast<std::size_t>(state.range(0)))) {
    sk.record(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk.percentile(99.0));
  }
  state.SetLabel("samples=" + std::to_string(state.range(0)) +
                 " buckets=" + std::to_string(sk.num_buckets()));
}
BENCHMARK(BM_PercentileQuantileSketch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_QuantileSketchRecord(benchmark::State& state) {
  // Ingest cost per sample (the recorder's hot path).
  const auto xs = make_latencies(4096);
  obs::QuantileSketch sk(0.01);
  std::size_t i = 0;
  for (auto _ : state) {
    sk.record(xs[i++ & 4095]);
  }
  benchmark::DoNotOptimize(sk.count());
}
BENCHMARK(BM_QuantileSketchRecord);

void BM_QuantileSketchMerge(benchmark::State& state) {
  obs::QuantileSketch a(0.01), b(0.01);
  for (double v : make_latencies(50000)) a.record(v);
  for (double v : make_latencies(50000)) b.record(v * 1.5);
  for (auto _ : state) {
    obs::QuantileSketch merged(a);
    merged.merge(b);
    benchmark::DoNotOptimize(merged.count());
  }
}
BENCHMARK(BM_QuantileSketchMerge);

void BM_DeadlinePropagationWindow(benchmark::State& state) {
  TraceWarehouse wh(100000);
  for (int i = 0; i < state.range(0); ++i) {
    Trace t = make_deep_trace(5, static_cast<std::uint64_t>(i));
    t.end = i;  // spread completion times
    wh.store(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(propagate_deadline(
        wh, 0, state.range(0), ServiceId(3), msec(400)));
  }
  state.SetLabel("traces=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_DeadlinePropagationWindow)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace sora

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  // No simulator runs here, so every stage lands in this thread's fallback
  // table.
  const auto stats = sora::obs::StageTable::current().stats();
  std::cout << "\n=== Per-stage controller overhead (accumulated across all "
               "benchmark iterations) ===\n";
  sora::obs::StageTable::print(stats, std::cout);
  std::cout << "\nPer-control-round cost = mean(scg.estimate) + "
               "mean(sora.deadline_prop); the paper's Section 6 claims the "
               "loop stays sub-second per round.\n";
  for (const auto& s : stats) {
    if (s.stage == "scg.estimate" || s.stage == "sora.deadline_prop") {
      std::cout << "  " << s.stage << ": mean "
                << s.mean_us() / 1000.0 << " ms/call over " << s.calls
                << " calls\n";
    }
  }
  return 0;
}
