#include "obs/chrome_trace.h"

#include <set>
#include <vector>

#include "obs/json.h"

namespace sora::obs {
namespace {

// Thread id shown for spans whose instance is unknown (e.g. root spans
// opened by the client before a replica is picked).
constexpr std::uint64_t kClientTid = 0;

std::uint64_t span_tid(const Span& s) {
  return s.instance.valid() ? s.instance.value() + 1 : kClientTid;
}

void emit_span(const Span& s, const Trace& t, const ServiceNamer& namer,
               bool& first, std::ostream& os) {
  JsonObject args;
  args.field("trace", t.id.value())
      .field("span", s.id.value())
      .field("class", s.request_class)
      .field("queue_us", s.admitted - s.arrival)
      .field("downstream_wait_us", s.downstream_wait)
      .field("processing_us", s.processing_time());

  JsonObject ev;
  ev.field("name", namer(s.service))
      .field("cat", "span")
      .field("ph", "X")
      .field("ts", s.arrival)
      .field("dur", s.duration())
      .field("pid", s.service.value())
      .field("tid", span_tid(s))
      .raw("args", args.str());

  if (!first) os << ",\n";
  first = false;
  os << ev.str();
}

void emit_process_name(ServiceId service, const ServiceNamer& namer,
                       bool& first, std::ostream& os) {
  JsonObject args;
  args.field("name", namer(service));
  JsonObject ev;
  ev.field("name", "process_name")
      .field("ph", "M")
      .field("pid", service.value())
      .raw("args", args.str());
  if (!first) os << ",\n";
  first = false;
  os << ev.str();
}

class Exporter {
 public:
  Exporter(const ServiceNamer& namer, std::ostream& os,
           const ChromeTraceOptions& options)
      : namer_(namer), os_(os), options_(options) {
    os_ << "{\"traceEvents\":[\n";
  }

  bool want_more() const {
    return options_.max_traces == 0 || exported_ < options_.max_traces;
  }

  void add(const Trace& t) {
    if (!want_more()) return;
    ++exported_;
    for (const Span& s : t.spans) {
      if (named_.insert(s.service.value()).second) {
        emit_process_name(s.service, namer_, first_, os_);
      }
      emit_span(s, t, namer_, first_, os_);
    }
  }

  std::size_t finish() {
    os_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return exported_;
  }

 private:
  const ServiceNamer& namer_;
  std::ostream& os_;
  ChromeTraceOptions options_;
  std::set<std::uint64_t> named_;
  bool first_ = true;
  std::size_t exported_ = 0;
};

}  // namespace

std::size_t export_chrome_trace(const TraceWarehouse& warehouse,
                                const ServiceNamer& namer, std::ostream& os,
                                ChromeTraceOptions options) {
  Exporter exporter(namer, os, options);
  warehouse.for_each_in_window(0, kSimTimeNever,
                               [&](const Trace& t) { exporter.add(t); });
  return exporter.finish();
}

std::size_t export_chrome_trace(const std::vector<Trace>& traces,
                                const ServiceNamer& namer, std::ostream& os,
                                ChromeTraceOptions options) {
  Exporter exporter(namer, os, options);
  for (const Trace& t : traces) exporter.add(t);
  return exporter.finish();
}

}  // namespace sora::obs
