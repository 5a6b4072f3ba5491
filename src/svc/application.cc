#include "svc/application.h"

#include <cassert>

#include "sim/simulator.h"
#include "trace/tracer.h"

namespace sora {

Application::Application(Simulator& sim, Tracer& tracer,
                         ApplicationConfig config, std::uint64_t seed)
    : sim_(sim),
      tracer_(tracer),
      config_(std::move(config)),
      rng_(seed),
      metrics_([&sim] { return sim.now(); }) {
  assert(!config_.services.empty());
  services_.reserve(config_.services.size());
  for (std::size_t i = 0; i < config_.services.size(); ++i) {
    auto svc = std::make_unique<Service>(*this, ServiceId(i),
                                         config_.services[i], rng_.fork());
    by_name_.emplace(svc->name(), svc.get());
    services_.push_back(std::move(svc));
  }
  assert(by_name_.size() == services_.size() && "duplicate service names");

  for (const auto& [cls, name] : config_.entry_service) {
    Service* svc = service(name);
    assert(svc != nullptr && "entry service does not exist");
    entries_.emplace(cls, svc);
  }
  if (entries_.empty()) {
    entries_.emplace(0, services_.front().get());
  }

  for (auto& svc : services_) svc->compile_and_start();

  // Pre-register counters that hot paths bump at runtime, so those bumps are
  // pure map finds.
  for (const auto& svc : services_) {
    metrics_.counter("fault.visits_dropped", {{"service", svc->name()}});
  }
  for (const auto& [cls, entry] : entries_) {
    metrics_.counter("app.shed", {{"service", entry->name()}});
  }

  // Per-span RPC latency, recorded as spans complete. Handles are resolved
  // once here so the span listener is a vector index + histogram record.
  span_latency_.reserve(services_.size());
  for (const auto& svc : services_) {
    span_latency_.push_back(
        &metrics_.histogram("rpc.latency_us", {{"service", svc->name()}}));
  }
  tracer_.add_span_listener([this](const Span& span) {
    if (span.service.valid() && span.service.value() < span_latency_.size()) {
      span_latency_[span.service.value()]->observe(
          static_cast<double>(span.duration()));
    }
  });
  // Served-vs-rejected verdict for the injection callback (see
  // last_trace_ok_ in the header for the ordering argument). The root hook,
  // not the trace sink: trace assembly is deferred while async callback
  // spans are still open, but the verdict must be fresh when the root's
  // done() continuation fires — and a callback shed later must not flip the
  // verdict of a response the user already received.
  tracer_.set_root_hook(
      [this](const Trace& trace) { last_trace_ok_ = !trace.rejected(); });
}

Application::~Application() = default;

Service* Application::service(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Service* Application::service(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Service* Application::service(ServiceId id) {
  if (!id.valid() || id.value() >= services_.size()) return nullptr;
  return services_[id.value()].get();
}

const std::string& Application::service_name(ServiceId id) const {
  static const std::string kUnknown = "?";
  if (!id.valid() || id.value() >= services_.size()) return kUnknown;
  return services_[id.value()]->name();
}

Service& Application::entry_service(int request_class) {
  auto it = entries_.find(request_class);
  if (it != entries_.end()) return *it->second;
  return *entries_.begin()->second;
}

void Application::inject(const RequestMeta& meta, Completion on_complete) {
  ++injected_;
  const SimTime start = sim_.now();
  Service& entry = entry_service(meta.request_class);

  RequestMeta request = meta;
  if (request.deadline == 0 && config_.request_sla > 0) {
    request.deadline = start + config_.request_sla;
  }

  // Front-door admission: shed before any trace exists, so rejections are
  // effectively free (~0 latency) and invisible to the trace pipeline.
  bool pre_admitted = false;
  if (AdmissionController* adm = entry.admission()) {
    const AdmissionDecision d = adm->decide(request, start);
    if (!d.admit) {
      ++shed_;
      metrics_.counter("app.shed", {{"service", entry.name()}}).add();
      on_complete(0, false);
      return;
    }
    adm->on_admit(start);
    pre_admitted = true;
  }

  const TraceId trace = tracer_.begin_trace(request.request_class, start);
  const SpanId root =
      tracer_.start_span(trace, SpanId{}, entry.id(), InstanceId{},
                         request.request_class, start);
  entry.dispatch(
      trace, root, request,
      [this, start, cb = std::move(on_complete)] {
        ++completed_;
        cb(sim_.now() - start, last_trace_ok_);
      },
      pre_admitted);
}

void Application::publish_metrics() {
  sim_.publish_metrics(metrics_);
  for (auto& svc : services_) svc->publish_metrics(metrics_);
  metrics_.gauge("app.in_flight").set(static_cast<double>(in_flight()));
  metrics_.counter("app.injected").set_total(static_cast<double>(injected_));
  metrics_.counter("app.completed").set_total(static_cast<double>(completed_));
  metrics_.counter("app.shed_total").set_total(static_cast<double>(shed_));
}

void Application::deliver(UniqueFunction fn) {
  if (config_.network_latency <= 0) {
    fn();
    return;
  }
  sim_.schedule_after(config_.network_latency, std::move(fn));
}

}  // namespace sora
