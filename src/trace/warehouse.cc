#include "trace/warehouse.h"

#include <memory>

#include "obs/profiler.h"
#include "trace/critical_path.h"

namespace sora {

TraceWarehouse::TraceWarehouse(std::size_t capacity) : capacity_(capacity) {}

void TraceWarehouse::attach(Tracer& tracer, std::uint64_t sample_every_n) {
  if (sample_every_n <= 1) {
    tracer.add_trace_listener([this](const Trace& t) { store(t); });
    return;
  }
  auto counter = std::make_shared<std::uint64_t>(0);
  tracer.add_trace_listener([this, counter, sample_every_n](const Trace& t) {
    if ((*counter)++ % sample_every_n == 0) store(t);
  });
}

void TraceWarehouse::store(Trace trace) {
  {
    SORA_PROFILE_STAGE("trace.critical_path");
    mark_critical_path(trace);
  }
  traces_.push_back(std::move(trace));
  ++total_stored_;
  for (const auto& listener : store_listeners_) listener(traces_.back());
  while (traces_.size() > capacity_) {
    traces_.pop_front();
    ++total_evicted_;
  }
}

void TraceWarehouse::for_each_in_window(
    SimTime from, SimTime to,
    const std::function<void(const Trace&)>& fn) const {
  for (const Trace& t : traces_) {
    if (t.end < from) continue;
    if (t.end > to) break;  // traces are completion-ordered
    fn(t);
  }
}

std::uint64_t TraceWarehouse::digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const Trace& t : traces_) {
    fold(t.id.value());
    fold(static_cast<std::uint64_t>(t.start));
    fold(static_cast<std::uint64_t>(t.end));
    fold(t.spans.size());
    for (const Span& s : t.spans) {
      fold(s.service.value());
      fold(static_cast<std::uint64_t>(s.arrival));
      fold(static_cast<std::uint64_t>(s.admitted));
      fold(static_cast<std::uint64_t>(s.departure));
      fold(static_cast<std::uint64_t>(s.downstream_wait));
      fold((s.failed ? 1u : 0u) | (s.rejected ? 2u : 0u));
    }
  }
  return h;
}

std::size_t TraceWarehouse::count_in_window(SimTime from, SimTime to) const {
  std::size_t n = 0;
  for_each_in_window(from, to, [&n](const Trace&) { ++n; });
  return n;
}

}  // namespace sora
