#include "trace/warehouse.h"

#include <algorithm>

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
  const Trace& stored = traces_.back();
  if (total_stored_ % kEndMaxBlock == 0) {
    block_end_max_.push_back(block_end_max_.empty() ? stored.end
                                                    : block_end_max_.back());
  }
  block_end_max_.back() = std::max(block_end_max_.back(), stored.end);
  {
    SORA_PROFILE_STAGE(obs::Stage::kTraceCriticalPath);
    mark_critical_path(traces_.back());
  }
  if (!upstream_.empty()) {
    // One pass over the marks fills every column: the same running sum as
    // upstream_processing_time, taken at each service's first hop.
    for (auto& [service, column] : upstream_) {
      column.push_back({stored.end, -1});
    }
    std::fill(upstream_seen_.begin(), upstream_seen_.end(), 0);
    SimTime sum = 0;
    for (const Span& s : stored.spans) {
      if (!s.on_critical_path) continue;
      for (std::size_t c = 0; c < upstream_.size(); ++c) {
        if (upstream_[c].first != s.service || upstream_seen_[c]) continue;
        upstream_seen_[c] = 1;
        upstream_[c].second.back().upstream = sum;
      }
      sum += s.processing_time();
    }
  }
  ++total_stored_;
  for (const auto& listener : store_listeners_) listener(stored);
  while (traces_.size() > capacity_) {
    traces_.pop_front();
    for (auto& [service, column] : upstream_) column.pop_front();
    if (++total_evicted_ % kEndMaxBlock == 0) block_end_max_.pop_front();
  }
}

std::size_t TraceWarehouse::window_begin(SimTime from) const {
  // Arrival order is not end-time order (deferred traces), but the running
  // maximum is sorted: every trace of a block whose maximum is below `from`
  // ended before it.
  const auto block = static_cast<std::size_t>(
      std::partition_point(block_end_max_.begin(), block_end_max_.end(),
                           [from](SimTime m) { return m < from; }) -
      block_end_max_.begin());
  if (block == 0) return 0;
  // The front block may have lost its first traces to eviction.
  const std::uint64_t first_block = total_evicted_ / kEndMaxBlock;
  const std::uint64_t begin = (first_block + block) * kEndMaxBlock;
  return std::min(traces_.size(),
                  static_cast<std::size_t>(begin - total_evicted_));
}

void TraceWarehouse::for_each_in_window(
    SimTime from, SimTime to,
    const std::function<void(const Trace&)>& fn) const {
  const auto first = static_cast<std::ptrdiff_t>(window_begin(from));
  for (auto it = traces_.begin() + first; it != traces_.end(); ++it) {
    if (it->end < from || it->end > to) continue;
    fn(*it);
  }
}

void TraceWarehouse::track_upstream(ServiceId service) {
  if (upstream_column(service) != nullptr) return;
  std::deque<UpstreamEntry> column;
  for (const Trace& t : traces_) {
    column.push_back({t.end, upstream_processing_time(t, service)});
  }
  upstream_.emplace_back(service, std::move(column));
  upstream_seen_.push_back(0);
}

const std::deque<TraceWarehouse::UpstreamEntry>*
TraceWarehouse::upstream_column(ServiceId service) const {
  for (const auto& [tracked, column] : upstream_) {
    if (tracked == service) return &column;
  }
  return nullptr;
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
