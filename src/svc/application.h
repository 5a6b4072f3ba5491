// The compiled, runnable microservice application.
//
// Owns every Service, routes injected end-user requests to the entry
// (front-end) service, and finalizes traces on completion. Implements
// LoadTarget so workload generators can drive it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/function.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "svc/config.h"
#include "svc/service.h"
#include "workload/load_target.h"

namespace sora {

class Simulator;
class Tracer;

class Application : public LoadTarget {
 public:
  /// Builds all services and their initial replicas. `seed` drives every
  /// stochastic element (demand sampling) deterministically.
  Application(Simulator& sim, Tracer& tracer, ApplicationConfig config,
              std::uint64_t seed);
  ~Application() override;

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  // -- LoadTarget -------------------------------------------------------------

  using LoadTarget::inject;

  /// Inject one end-user request. `on_complete` receives the end-to-end
  /// response time when the response leaves the front-end, plus whether it
  /// was actually served. Requests without a deadline pick one up from
  /// config.request_sla (when set). When the entry service has an admission
  /// controller, requests may be shed at the front door: the callback fires
  /// synchronously with (0, false) — no trace is created, so shed requests
  /// never pollute the trace warehouse or the concurrency estimator.
  void inject(const RequestMeta& meta, Completion on_complete) override;

  // -- lookup ------------------------------------------------------------------

  Service* service(const std::string& name);
  const Service* service(const std::string& name) const;
  Service* service(ServiceId id);
  const std::vector<std::unique_ptr<Service>>& services() const {
    return services_;
  }
  const std::string& service_name(ServiceId id) const;

  Simulator& sim() { return sim_; }
  Tracer& tracer() { return tracer_; }
  const ApplicationConfig& config() const { return config_; }

  /// Application-wide metrics registry (sim-time stamped). Per-span RPC
  /// latency histograms are recorded automatically; call publish_metrics()
  /// (typically from a periodic sampler) to refresh the service/pool/sim
  /// gauges.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Publish current event-loop and per-service state (replicas, CPU, pool
  /// capacity/in-use/waits) into the registry.
  void publish_metrics();

  IdGenerator<InstanceId>& instance_ids() { return instance_ids_; }
  Rng& rng() { return rng_; }

  /// Total requests injected / completed / shed (conservation checks).
  /// Shed requests never enter the system: injected = completed + shed +
  /// in_flight.
  std::uint64_t injected() const { return injected_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t in_flight() const { return injected_ - completed_ - shed_; }

  /// Deliver a message across the network: runs `fn` after the configured
  /// network latency (synchronously when latency is 0).
  void deliver(UniqueFunction fn);

 private:
  Service& entry_service(int request_class);

  Simulator& sim_;
  Tracer& tracer_;
  ApplicationConfig config_;
  Rng rng_;
  IdGenerator<InstanceId> instance_ids_;
  obs::MetricsRegistry metrics_;
  // per-service RPC latency histograms, indexed by ServiceId value
  std::vector<obs::HistogramMetric*> span_latency_;

  std::vector<std::unique_ptr<Service>> services_;  // index == ServiceId value
  std::map<std::string, Service*> by_name_;
  std::map<int, Service*> entries_;

  std::uint64_t injected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_ = 0;  ///< front-door sheds (no trace ever created)
  /// Whether the most recently departed root was served end-to-end (no
  /// hop rejected by admission). The tracer's root hook runs synchronously
  /// inside the root finish_span, before the root's done() continuation, so
  /// this is always fresh when the injection callback fires — even when
  /// async callback spans keep the trace open past the root.
  bool last_trace_ok_ = true;
};

}  // namespace sora
