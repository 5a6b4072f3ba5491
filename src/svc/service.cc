#include "svc/service.h"

#include <cassert>

#include "common/log.h"
#include "sim/simulator.h"
#include "svc/application.h"
#include "trace/tracer.h"

namespace sora {

Service::Service(Application& app, ServiceId id, ServiceConfig config, Rng rng)
    : app_(app),
      id_(id),
      config_(std::move(config)),
      rng_(rng),
      cpu_limit_(config_.cores),
      entry_pool_size_(config_.entry_pool_size) {}

Service::~Service() = default;

void Service::compile_and_start() {
  // Edge pools: stable index order (std::map iteration = name order).
  for (const auto& [target, edge_cfg] : config_.edge_pools) {
    edge_index_.emplace(target, static_cast<int>(edge_names_.size()));
    edge_names_.push_back(target);
    edge_configs_.push_back(edge_cfg);
    edge_pool_sizes_.push_back(edge_cfg.size);
  }

  // Behaviours: dense vector indexed by class, falling back to class 0.
  int max_class = 0;
  for (const auto& [cls, _] : config_.classes) max_class = std::max(max_class, cls);
  behaviors_.resize(static_cast<std::size_t>(max_class) + 1);
  const ClassBehavior* fallback = nullptr;
  if (auto it = config_.classes.find(0); it != config_.classes.end()) {
    fallback = &it->second;
  }
  for (int cls = 0; cls <= max_class; ++cls) {
    const ClassBehavior* src = fallback;
    if (auto it = config_.classes.find(cls); it != config_.classes.end()) {
      src = &it->second;
    }
    CompiledBehavior& out = behaviors_[static_cast<std::size_t>(cls)];
    if (src == nullptr) continue;  // leaf default: zero demand, no calls
    out.request_demand = src->request_demand;
    out.response_demand = src->response_demand;
    for (const CallGroup& group : src->call_groups) {
      CompiledGroup cg;
      for (const std::string& target_name : group.targets) {
        Service* target = app_.service(target_name);
        assert(target != nullptr && "call target does not exist");
        cg.calls.push_back(CompiledCall{target, edge_index_of(target_name)});
      }
      out.groups.push_back(std::move(cg));
    }
    for (const AsyncCallback& cb : src->async_callbacks) {
      Service* target = app_.service(cb.target);
      assert(target != nullptr && "async callback target does not exist");
      out.async_callbacks.push_back(
          CompiledAsyncCall{target, cb.request_class, cb.priority});
    }
  }
  refresh_samplers();

  scale_replicas(std::max(1, config_.initial_replicas));
}

void Service::refresh_samplers() {
  for (CompiledBehavior& b : behaviors_) {
    b.request_sampler = LognormalSampler(
        b.request_demand.mean_us * demand_scale_, b.request_demand.cv);
    b.response_sampler = LognormalSampler(
        b.response_demand.mean_us * demand_scale_, b.response_demand.cv);
  }
}

void Service::set_demand_scale(double scale) {
  demand_scale_ = scale;
  refresh_samplers();
}

const CompiledBehavior& Service::behavior(int request_class) const {
  if (request_class >= 0 &&
      static_cast<std::size_t>(request_class) < behaviors_.size()) {
    return behaviors_[static_cast<std::size_t>(request_class)];
  }
  return behaviors_.front();
}

ServiceInstance& Service::pick_replica(Priority priority) {
  assert(active_count_ > 0 && "dispatch to service with no active replicas");
  std::uint64_t& next = rr_next_[static_cast<std::size_t>(priority)];
  // One replica: it is the only one active. The turn still advances, so a
  // later scale-out sees the same round-robin position.
  if (instances_.size() == 1) {
    ++next;
    return *instances_.front();
  }
  std::uint64_t turn = next++ % static_cast<std::uint64_t>(active_count_);
  for (auto& inst : instances_) {
    if (inst->active() && turn-- == 0) return *inst;
  }
  assert(false && "active_count_ out of sync with the replicas");
  return *instances_.front();
}

void Service::dispatch(Span& span, const RequestMeta& meta,
                       UniqueFunction&& done, bool pre_admitted) {
  if (admission_ != nullptr && !pre_admitted) {
    const SimTime now = app_.sim().now();
    const AdmissionDecision d = admission_->decide(meta, now);
    if (!d.admit) {
      // Shed a mid-chain call: close the caller-opened span as a rejected
      // error response. The caller sees an (instant) error return.
      span.failed = true;
      span.rejected = true;
      app_.tracer().finish_span(span, now);
      done();
      return;
    }
    admission_->on_admit(now);
  }
  pick_replica(meta.priority).serve(span, meta, std::move(done));
}

void Service::note_request_departure(SimTime rtt, bool ok) {
  if (admission_ != nullptr) {
    admission_->on_departure(app_.sim().now(), rtt, ok);
  }
}

void Service::revive(ServiceInstance& inst) {
  inst.set_active(true);
  // Bring the revived replica in line with current knob settings.
  inst.cpu().set_cores(cpu_limit_);
  inst.entry_pool().resize(entry_pool_size_ <= 0 ? 1'000'000'000
                                                 : entry_pool_size_);
  for (std::size_t e = 0; e < edge_pool_sizes_.size(); ++e) {
    if (auto* pool = inst.edge_pool(static_cast<int>(e))) {
      pool->resize(std::max(1, edge_pool_sizes_[e]));
    }
  }
  ++active_count_;
}

void Service::scale_replicas(int target) {
  target = std::max(target, 1);
  // Reactivate drained replicas first, then create fresh ones.
  if (target > active_count_) {
    for (auto& inst : instances_) {
      if (active_count_ >= target) break;
      if (!inst->active()) revive(*inst);
    }
    while (active_count_ < target) {
      instances_.push_back(
          std::make_unique<ServiceInstance>(*this, app_.instance_ids().next()));
      ++active_count_;
    }
  } else {
    // Deactivate from the back; in-flight requests drain naturally.
    for (std::size_t i = instances_.size(); i-- > 0 && active_count_ > target;) {
      if (instances_[i]->active()) {
        instances_[i]->set_active(false);
        --active_count_;
      }
    }
  }
}

bool Service::crash_replica(std::size_t index, bool drop_inflight) {
  if (index >= instances_.size()) return false;
  ServiceInstance& inst = *instances_[index];
  if (!inst.active()) return false;
  if (active_count_ <= 1) return false;  // never kill the last replica
  inst.set_active(false);
  --active_count_;
  if (drop_inflight) inst.condemn_in_flight();
  app_.metrics()
      .counter("fault.crashes", {{"service", name()}})
      .add();
  return true;
}

bool Service::restore_replica(std::size_t index) {
  if (index >= instances_.size()) return false;
  ServiceInstance& inst = *instances_[index];
  if (inst.active()) return false;
  revive(inst);
  return true;
}

std::uint64_t Service::visits_dropped() const {
  std::uint64_t total = 0;
  for (const auto& inst : instances_) total += inst->visits_dropped();
  return total;
}

void Service::set_cpu_limit(double cores) {
  cpu_limit_ = cores;
  for (auto& inst : instances_) inst->cpu().set_cores(cores);
}

void Service::resize_entry_pool(int per_replica) {
  entry_pool_size_ = per_replica;
  const int effective = per_replica <= 0 ? 1'000'000'000 : per_replica;
  for (auto& inst : instances_) inst->entry_pool().resize(effective);
  app_.metrics()
      .counter("pool.resizes", {{"service", name()}, {"pool", "entry"}})
      .add();
}

void Service::resize_edge_pool(const std::string& target, int per_replica) {
  const int idx = edge_index_of(target);
  assert(idx >= 0 && "resizing an unconfigured edge pool");
  edge_pool_sizes_[static_cast<std::size_t>(idx)] = per_replica;
  for (auto& inst : instances_) {
    if (auto* pool = inst->edge_pool(idx)) {
      pool->resize(std::max(1, per_replica));
    }
  }
  app_.metrics()
      .counter("pool.resizes", {{"service", name()}, {"pool", "->" + target}})
      .add();
}

int Service::edge_pool_size(const std::string& target) const {
  const int idx = edge_index_of(target);
  return idx < 0 ? 0 : edge_pool_sizes_[static_cast<std::size_t>(idx)];
}

int Service::edge_index_of(const std::string& target) const {
  auto it = edge_index_.find(target);
  return it == edge_index_.end() ? -1 : it->second;
}

int Service::entry_in_use() const {
  int total = 0;
  for (const auto& inst : instances_) {
    if (inst->active()) total += inst->entry_pool().in_use();
  }
  return total;
}

int Service::entry_capacity() const {
  int total = 0;
  for (const auto& inst : instances_) {
    if (inst->active()) total += inst->entry_pool().capacity();
  }
  return total;
}

double Service::entry_usage_integral() const {
  double total = 0.0;
  for (const auto& inst : instances_) {
    total += inst->entry_pool().usage_integral();
  }
  return total;
}

int Service::edge_in_use(const std::string& target) const {
  const int idx = edge_index_of(target);
  if (idx < 0) return 0;
  int total = 0;
  for (const auto& inst : instances_) {
    if (!inst->active()) continue;
    if (const auto* pool = inst->edge_pool(idx)) total += pool->in_use();
  }
  return total;
}

int Service::edge_capacity(const std::string& target) const {
  const int idx = edge_index_of(target);
  if (idx < 0) return 0;
  int total = 0;
  for (const auto& inst : instances_) {
    if (!inst->active()) continue;
    if (const auto* pool = inst->edge_pool(idx)) total += pool->capacity();
  }
  return total;
}

double Service::edge_usage_integral(const std::string& target) const {
  const int idx = edge_index_of(target);
  if (idx < 0) return 0.0;
  double total = 0.0;
  for (const auto& inst : instances_) {
    if (const auto* pool = inst->edge_pool(idx)) {
      total += pool->usage_integral();
    }
  }
  return total;
}

double Service::cpu_busy_integral() const {
  double total = 0.0;
  for (const auto& inst : instances_) total += inst->cpu().busy_integral();
  return total;
}

double Service::cpu_capacity() const {
  double total = 0.0;
  for (const auto& inst : instances_) {
    if (inst->active()) total += inst->cpu().cores();
  }
  return total;
}

void Service::publish_metrics(obs::MetricsRegistry& metrics) const {
  const obs::MetricLabels svc_label{{"service", name()}};
  metrics.gauge("service.replicas", svc_label)
      .set(static_cast<double>(active_count_));
  metrics.gauge("service.cpu_limit_cores", svc_label).set(cpu_limit_);
  metrics.counter("service.cpu_busy_core_us", svc_label)
      .set_total(cpu_busy_integral());
  metrics.counter("service.completions", svc_label)
      .set_total(static_cast<double>(completions_));

  // Aggregate a pool family (entry or one edge) across replicas: gauges
  // over active replicas, monotonic wait totals over all replicas.
  auto publish_pool = [&](const std::string& pool_name,
                          auto&& pool_of /* instance -> pool* */) {
    int capacity = 0, in_use = 0;
    std::size_t waiting = 0;
    double waits = 0.0, wait_us = 0.0;
    for (const auto& inst : instances_) {
      const SoftResourcePool* pool = pool_of(*inst);
      if (pool == nullptr) continue;
      waits += static_cast<double>(pool->total_waits());
      wait_us += static_cast<double>(pool->total_wait_time());
      if (!inst->active()) continue;
      capacity += pool->capacity();
      in_use += pool->in_use();
      waiting += pool->waiting();
    }
    const obs::MetricLabels labels{{"service", name()}, {"pool", pool_name}};
    metrics.gauge("pool.capacity", labels).set(capacity);
    metrics.gauge("pool.in_use", labels).set(in_use);
    metrics.gauge("pool.queue_depth", labels)
        .set(static_cast<double>(waiting));
    metrics.counter("pool.waits", labels).set_total(waits);
    metrics.counter("pool.wait_time_us", labels).set_total(wait_us);
  };

  publish_pool("entry", [](const ServiceInstance& inst) {
    return &inst.entry_pool();
  });
  for (const auto& [target, idx] : edge_index_) {
    publish_pool("->" + target, [idx = idx](const ServiceInstance& inst) {
      return inst.edge_pool(idx);
    });
  }
}

}  // namespace sora
