#include "trace/warehouse.h"

#include "obs/profiler.h"
#include "trace/critical_path.h"

namespace sora {

TraceWarehouse::TraceWarehouse(std::size_t capacity) : capacity_(capacity) {}

void TraceWarehouse::attach(Tracer& tracer) {
  tracer.set_trace_sink([this](const Trace& t) { store(t); });
}

void TraceWarehouse::store(const Trace& trace) {
  // Copy rather than take the tracer's trace by move: the copy packs the
  // spans into fresh deque storage, and the tracer's short-lived buffers
  // stay hot for the next trace. Moving instead measured slower and larger
  // on the cart_firm benchmark (4-core VM, 4 pairs: run_s +3% median, peak
  // RSS +3%).
  traces_.push_back(trace);
  {
    SORA_PROFILE_STAGE(obs::Stage::kTraceCriticalPath);
    mark_critical_path(traces_.back());
  }
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
    // Arrival order is not end-time order (deferred traces), so scan all.
    if (t.end < from || t.end > to) continue;
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

}  // namespace sora
