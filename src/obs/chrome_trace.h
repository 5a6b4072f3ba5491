// Chrome trace_event (Perfetto-compatible) export of request traces.
//
// Converts the TraceWarehouse's retained spans into the Trace Event Format
// consumed by chrome://tracing, https://ui.perfetto.dev and speedscope: one
// complete ("X") event per service visit, grouped so the viewer shows one
// track ("process") per service with replicas as threads. Span arguments
// carry the SCG-relevant decomposition — queueing before admission,
// downstream wait, and own processing time — so the exact quantities the
// controller reasons about are inspectable per request in the viewer.
//
// SimTime is already microseconds, the unit the format expects; no scaling.
#pragma once

#include <functional>
#include <ostream>
#include <string>

#include "common/ids.h"
#include "common/time.h"
#include "trace/span.h"
#include "trace/warehouse.h"

namespace sora::obs {

/// Resolve a ServiceId to a display name (e.g. Application::service_name).
using ServiceNamer = std::function<std::string(ServiceId)>;

struct ChromeTraceOptions {
  /// Cap on exported traces (0 = no cap); oldest first, like the warehouse.
  std::size_t max_traces = 0;
};

/// Write one complete Chrome trace JSON document for every retained trace.
/// Returns the number of traces exported.
std::size_t export_chrome_trace(const TraceWarehouse& warehouse,
                                const ServiceNamer& namer, std::ostream& os,
                                ChromeTraceOptions options = {});

/// Same, over an explicit list of traces (tests, custom pipelines).
std::size_t export_chrome_trace(const std::vector<Trace>& traces,
                                const ServiceNamer& namer, std::ostream& os,
                                ChromeTraceOptions options = {});

}  // namespace sora::obs
