// Shared helpers for the test suite: small topologies, synthetic traces, a
// scripted fault plan and a faster control cadence.
#pragma once

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "autoscale/controller.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"
#include "svc/config.h"
#include "trace/span.h"

namespace sora::testutil {

/// One service "svc": no downstream calls, configurable demand/pool/cores.
inline ApplicationConfig single_service(double cores = 2.0,
                                        int entry_pool = 8,
                                        double req_us = 1000,
                                        double resp_us = 500,
                                        double cv = 0.0) {
  ApplicationConfig app;
  ServiceConfig s;
  s.name = "svc";
  s.with_cores(cores).with_entry_pool(entry_pool);
  s.with_demand(0, req_us, resp_us, cv);
  app.services.push_back(s);
  app.entry_service[0] = "svc";
  return app;
}

/// Chain: front -> mid -> leaf (deterministic demands by default).
inline ApplicationConfig chain_app(double cv = 0.0) {
  ApplicationConfig app;
  {
    ServiceConfig s;
    s.name = "front";
    s.with_cores(4).with_entry_pool(64);
    s.with_demand(0, 500, 300, cv);
    s.with_call(0, "mid");
    app.services.push_back(s);
  }
  {
    ServiceConfig s;
    s.name = "mid";
    s.with_cores(4).with_entry_pool(32);
    s.with_demand(0, 800, 400, cv);
    s.with_call(0, "leaf");
    app.services.push_back(s);
  }
  {
    ServiceConfig s;
    s.name = "leaf";
    s.with_cores(4).with_entry_pool(32);
    s.with_demand(0, 1200, 0, cv);
    app.services.push_back(s);
  }
  app.entry_service[0] = "front";
  return app;
}

/// Fan-out: front calls {a, b} in parallel; a is slower.
inline ApplicationConfig fanout_app(double a_us = 3000, double b_us = 1000,
                                    double cv = 0.0) {
  ApplicationConfig app;
  {
    ServiceConfig s;
    s.name = "front";
    s.with_cores(4).with_entry_pool(64);
    s.with_demand(0, 200, 200, cv);
    s.with_parallel_calls(0, {"a", "b"});
    app.services.push_back(s);
  }
  {
    ServiceConfig s;
    s.name = "a";
    s.with_cores(4).with_entry_pool(32);
    s.with_demand(0, a_us, 0, cv);
    app.services.push_back(s);
  }
  {
    ServiceConfig s;
    s.name = "b";
    s.with_cores(4).with_entry_pool(32);
    s.with_demand(0, b_us, 0, cv);
    app.services.push_back(s);
  }
  app.entry_service[0] = "front";
  return app;
}

/// Caller with a gated edge pool to a leaf target ("db").
inline ApplicationConfig edge_pool_app(int connections, double db_us = 1000,
                                       double cv = 0.0) {
  ApplicationConfig app;
  {
    ServiceConfig s;
    s.name = "caller";
    s.with_cores(8).with_entry_pool(0);
    s.with_edge_pool("db", connections, PoolKind::kDbConnections);
    s.with_demand(0, 100, 100, cv);
    s.with_call(0, "db");
    app.services.push_back(s);
  }
  {
    ServiceConfig s;
    s.name = "db";
    s.with_cores(4).with_entry_pool(512);
    s.with_demand(0, db_us, 0, cv);
    app.services.push_back(s);
  }
  app.entry_service[0] = "caller";
  return app;
}

/// Build a synthetic trace by hand. Spans are given as tuples; children are
/// linked through the parent index.
struct SyntheticSpan {
  int parent_index;  // -1 for root
  std::uint64_t service;
  SimTime arrival;
  SimTime departure;
  SimTime downstream_wait;
  int parallel_group = 0;
};

inline Trace make_trace(const std::vector<SyntheticSpan>& spans,
                        std::uint64_t trace_id = 1) {
  Trace t;
  t.id = TraceId(trace_id);
  t.request_class = 0;
  t.start = spans.empty() ? 0 : spans.front().arrival;
  t.end = spans.empty() ? 0 : spans.front().departure;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SyntheticSpan& ss = spans[i];
    Span s;
    s.id = SpanId(trace_id * 1000 + i);
    s.trace = t.id;
    s.parent = ss.parent_index >= 0
                   ? SpanId(trace_id * 1000 +
                            static_cast<std::uint64_t>(ss.parent_index))
                   : SpanId{};
    s.service = ServiceId(ss.service);
    s.instance = InstanceId(0);
    s.arrival = ss.arrival;
    s.admitted = ss.arrival;
    s.departure = ss.departure;
    s.downstream_wait = ss.downstream_wait;
    t.spans.push_back(s);
  }
  // Wire children links.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_index < 0) continue;
    Span& parent = t.spans[static_cast<std::size_t>(spans[i].parent_index)];
    parent.children.push_back(ChildCall{i, spans[i].parallel_group,
                                        spans[i].arrival,
                                        spans[i].departure});
  }
  return t;
}

/// Step `ctl`'s control rounds every `cadence` instead of its fixed period,
/// so a short run covers many rounds. Call once the controller has started
/// (directly, or through Experiment::start_all): stop() cancels its own
/// schedule and keeps the windows begin() opened.
inline void step_rounds(Simulator& sim, Controller& ctl, SimTime cadence) {
  ctl.stop();
  sim.schedule_periodic(cadence, [&ctl] { ctl.round(); });
}

/// A scripted plan that fires each fault kind once inside a run of `horizon`
/// on chain_app with "mid" at two or more replicas: a crash of "mid" that
/// drops its in-flight visits, a CPU step on "leaf", a span dropout, a
/// scatter dropout and a control stall. Every event lands `shift` later, so
/// sweep points can differ in fault timing.
inline FaultPlan every_fault_kind(SimTime horizon, SimTime shift = 0) {
  const auto at = [&](double fraction) {
    return static_cast<SimTime>(fraction * static_cast<double>(horizon)) +
           shift;
  };
  const SimTime window = horizon / 5;
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrashInstance;
  crash.at = at(0.2);
  crash.service = "mid";
  crash.drop_inflight = true;
  crash.duration = horizon / 4;
  plan.add(crash);
  FaultEvent step;
  step.kind = FaultKind::kCpuLimitStep;
  step.at = at(0.3);
  step.service = "leaf";
  step.cores = 1.5;
  plan.add(step);
  FaultEvent spans;
  spans.kind = FaultKind::kSpanDropout;
  spans.at = at(0.35);
  spans.fraction = 0.5;
  spans.duration = window;
  plan.add(spans);
  FaultEvent scatter;
  scatter.kind = FaultKind::kScatterDropout;
  scatter.at = at(0.4);
  scatter.fraction = 0.5;
  scatter.duration = window;
  plan.add(scatter);
  FaultEvent stall;
  stall.kind = FaultKind::kControlStall;
  stall.at = at(0.5);
  stall.duration = window;
  plan.add(stall);
  return plan;
}

/// The fault kinds that have no record of taking effect in a decision-log
/// JSONL dump: a "crash" record for crashes, "cpu_step" for CPU steps and
/// "fault_start" for the windowed kinds. Empty when every kind fired.
inline std::vector<std::string> kinds_not_fired(const std::string& jsonl) {
  const std::pair<FaultKind, const char*> fired_by[] = {
      {FaultKind::kCrashInstance, "crash"},
      {FaultKind::kCpuLimitStep, "cpu_step"},
      {FaultKind::kSpanDropout, "fault_start"},
      {FaultKind::kScatterDropout, "fault_start"},
      {FaultKind::kControlStall, "fault_start"},
  };
  std::vector<std::string> missing;
  for (const auto& [kind, action] : fired_by) {
    const std::string want_kind =
        std::string("\"fault_kind\":\"") + to_string(kind) + "\"";
    const std::string want_action =
        std::string("\"action\":\"") + action + "\"";
    bool seen = false;
    std::istringstream lines(jsonl);
    for (std::string line; !seen && std::getline(lines, line);) {
      seen = line.find(want_kind) != std::string::npos &&
             line.find(want_action) != std::string::npos;
    }
    if (!seen) missing.push_back(to_string(kind));
  }
  return missing;
}

}  // namespace sora::testutil
