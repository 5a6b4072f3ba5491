#include "core/deadline.h"

#include <algorithm>
#include <deque>

#include "obs/profiler.h"
#include "trace/critical_path.h"

namespace sora {

DeadlineResult propagate_deadline(const TraceWarehouse& warehouse, SimTime from,
                                  SimTime to, ServiceId critical, SimTime sla,
                                  const DeadlineOptions& options) {
  SORA_PROFILE_STAGE(obs::Stage::kSoraDeadlineProp);
  DeadlineResult result;
  // A tracked service's upstream column holds each trace's end and upstream
  // PT; an untracked one's is read from the critical-path marks the
  // warehouse stamped at store time. Both visit the window in storage order.
  const std::deque<TraceWarehouse::UpstreamEntry>* column =
      warehouse.upstream_column(critical);
  const auto first = static_cast<std::ptrdiff_t>(warehouse.window_begin(from));
  const auto in_window = [from, to](SimTime end) {
    return end >= from && end <= to;
  };
  // Systematic sampling bound: count the window's traces first, then fold
  // every stride-th one.
  std::size_t stride = 1;
  if (options.max_traces > 0) {
    std::size_t window_size = 0;
    if (column != nullptr) {
      window_size = static_cast<std::size_t>(
          std::count_if(column->begin() + first, column->end(),
                        [&](const auto& e) { return in_window(e.end); }));
    } else {
      warehouse.for_each_in_window(from, to,
                                   [&](const Trace&) { ++window_size; });
    }
    stride = (window_size + options.max_traces - 1) /
             std::max<std::size_t>(1, options.max_traces);
    if (stride == 0) stride = 1;
  }
  // Upstream PT is integral, so the int64 sum is exact.
  SimTime upstream_sum = 0;
  std::size_t seen = 0;
  const auto sampled = [&] { return seen++ % stride == 0; };
  const auto fold = [&](SimTime upstream) {
    if (upstream < 0) return;  // critical service not on this path
    upstream_sum += upstream;
    ++result.traces_used;
  };
  if (column != nullptr) {
    for (auto it = column->begin() + first; it != column->end(); ++it) {
      if (in_window(it->end) && sampled()) fold(it->upstream);
    }
  } else {
    warehouse.for_each_in_window(from, to, [&](const Trace& t) {
      if (sampled()) fold(upstream_processing_time(t, critical));
    });
  }

  if (result.traces_used == 0) return result;

  result.mean_upstream_pt = static_cast<SimTime>(
      static_cast<double>(upstream_sum) /
      static_cast<double>(result.traces_used));
  const SimTime floor = std::max(
      kMinDeadlineThreshold,
      static_cast<SimTime>(kMinDeadlineFractionOfSla *
                           static_cast<double>(sla)));
  result.rt_threshold = std::max(floor, sla - result.mean_upstream_pt);
  result.valid = true;
  return result;
}

}  // namespace sora
