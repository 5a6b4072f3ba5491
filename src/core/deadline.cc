#include "core/deadline.h"

#include <algorithm>

#include "obs/profiler.h"
#include "trace/critical_path.h"

namespace sora {

DeadlineResult propagate_deadline(const TraceWarehouse& warehouse, SimTime from,
                                  SimTime to, ServiceId critical, SimTime sla,
                                  const DeadlineOptions& options) {
  SORA_PROFILE_STAGE(obs::Stage::kSoraDeadlineProp);
  DeadlineResult result;
  // Systematic sampling bound: count the matching traces first, then fold
  // every stride-th one.
  std::size_t stride = 1;
  if (options.max_traces > 0) {
    std::size_t matching = 0;
    warehouse.for_each_in_window(from, to, [&](const Trace& t) {
      if (options.request_class >= 0 &&
          t.request_class != options.request_class) {
        return;
      }
      ++matching;
    });
    stride = (matching + options.max_traces - 1) /
             std::max<std::size_t>(1, options.max_traces);
    if (stride == 0) stride = 1;
  }
  // Critical paths were marked when the warehouse stored each trace; the
  // walk reads the marks. Upstream PT is integral, so the int64 sum is exact.
  SimTime upstream_sum = 0;
  std::size_t seen = 0;
  warehouse.for_each_in_window(from, to, [&](const Trace& t) {
    if (options.request_class >= 0 && t.request_class != options.request_class) {
      return;
    }
    if (seen++ % stride != 0) return;
    const SimTime upstream = upstream_processing_time(t, critical);
    if (upstream < 0) return;  // critical service not on this path
    upstream_sum += upstream;
    ++result.traces_used;
  });

  if (result.traces_used == 0) return result;

  result.mean_upstream_pt = static_cast<SimTime>(
      static_cast<double>(upstream_sum) /
      static_cast<double>(result.traces_used));
  const SimTime floor = std::max(
      options.min_threshold,
      static_cast<SimTime>(options.min_fraction_of_sla *
                           static_cast<double>(sla)));
  result.rt_threshold = std::max(floor, sla - result.mean_upstream_pt);
  result.valid = true;
  return result;
}

}  // namespace sora
