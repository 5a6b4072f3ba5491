#include "svc/instance.h"

#include <cassert>
#include <utility>

#include "common/log.h"
#include "sim/simulator.h"
#include "svc/application.h"
#include "svc/service.h"
#include "trace/tracer.h"

namespace sora {

namespace {
// Capacity standing in for "no limit" (e.g. goroutine-per-request services).
constexpr int kUnlimited = 1'000'000'000;

int effective_pool_size(int configured) {
  return configured <= 0 ? kUnlimited : configured;
}
}  // namespace

ServiceInstance::Visit* ServiceInstance::alloc_visit() {
  if (free_visits_ == nullptr) return &visits_.emplace_back();
  Visit* v = free_visits_;
  free_visits_ = v->next_free;
  return v;
}

void ServiceInstance::free_visit(Visit* v) {
  v->span = nullptr;
  v->done.reset();
  v->behavior = nullptr;
  v->priority = Priority::kHigh;
  v->deadline = 0;
  v->arrived = 0;
  v->blocked_since = 0;
  v->pending_calls = 0;
  v->in_flight = false;
  v->condemned = false;
  v->next_free = free_visits_;
  free_visits_ = v;
}

void ServiceInstance::on_cpu_done(void* self, CpuScheduler::Token token) {
  static_assert(sizeof(Visit*) <= sizeof(CpuScheduler::Token) &&
                alignof(Visit) > kResponsePhase);
  auto* inst = static_cast<ServiceInstance*>(self);
  Visit* v = reinterpret_cast<Visit*>(token & ~kResponsePhase);
  if ((token & kResponsePhase) != 0) {
    inst->finish(v);
  } else {
    inst->run_group(v, 0);
  }
}

ServiceInstance::ServiceInstance(Service& service, InstanceId id)
    : svc_(service),
      id_(id),
      cpu_(service.app().sim(), service.cpu_limit(),
           service.config().overhead_beta, &ServiceInstance::on_cpu_done,
           this),
      entry_pool_(service.app().sim(), service.config().entry_pool_kind,
                  service.name() + "/entry",
                  effective_pool_size(service.entry_pool_size())),
      rng_(service.app().rng().fork()) {
  // One connection pool per configured edge; size 0 = ungated (null).
  const std::size_t n = service.edge_names_.size();
  edge_pools_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int size = service.edge_pool_sizes_[i];
    if (size <= 0) {
      edge_pools_.push_back(nullptr);
    } else {
      edge_pools_.push_back(std::make_unique<SoftResourcePool>(
          service.app().sim(), service.edge_configs_[i].kind,
          service.name() + "->" + service.edge_names_[i], size));
    }
  }
}

ServiceInstance::~ServiceInstance() = default;

SoftResourcePool* ServiceInstance::edge_pool(int edge_index) {
  if (edge_index < 0 ||
      static_cast<std::size_t>(edge_index) >= edge_pools_.size()) {
    return nullptr;
  }
  return edge_pools_[static_cast<std::size_t>(edge_index)].get();
}

const SoftResourcePool* ServiceInstance::edge_pool(int edge_index) const {
  return const_cast<ServiceInstance*>(this)->edge_pool(edge_index);
}

void ServiceInstance::serve(Span& span, const RequestMeta& meta,
                            Done&& done) {
  ++outstanding_;
  span.instance = id_;

  Visit* v = alloc_visit();
  v->span = &span;
  v->request_class = meta.request_class;
  v->priority = meta.priority;
  v->deadline = meta.deadline;
  v->arrived = svc_.app().sim().now();
  v->done = std::move(done);
  v->behavior = &svc_.behavior(meta.request_class);
  v->in_flight = true;

  entry_pool_.acquire([this, v] { on_admitted(v); });
}

void ServiceInstance::condemn_in_flight() {
  for (Visit& v : visits_) {
    if (v.in_flight) v.condemned = true;
  }
}

void ServiceInstance::on_admitted(Visit* v) {
  if (v->condemned) {
    abort_visit(v);
    return;
  }
  v->span->admitted = svc_.app().sim().now();

  const SimTime demand =
      static_cast<SimTime>(v->behavior->request_sampler.sample(rng_));
  cpu_.submit(demand, reinterpret_cast<CpuScheduler::Token>(v));
}

void ServiceInstance::run_group(Visit* v, std::size_t group_index) {
  if (v->condemned) {
    abort_visit(v);
    return;
  }
  if (group_index >= v->behavior->groups.size()) {
    on_groups_done(v);
    return;
  }
  const CompiledGroup& group = v->behavior->groups[group_index];
  if (group.calls.empty()) {
    run_group(v, group_index + 1);
    return;
  }
  v->blocked_since = svc_.app().sim().now();
  v->pending_calls = static_cast<int>(group.calls.size());
  for (std::size_t ci = 0; ci < group.calls.size(); ++ci) {
    issue_call(v, group_index, ci);
  }
}

void ServiceInstance::issue_call(Visit* v, std::size_t group_index,
                                 std::size_t call_index) {
  Application& app = svc_.app();
  Tracer& tracer = app.tracer();
  const CompiledGroup& group = v->behavior->groups[group_index];
  const CompiledCall& call = group.calls[call_index];
  Service* target = call.target;
  assert(target != nullptr);

  Span* child = &tracer.start_span(v->span->trace, v->span, target->id(),
                                   v->request_class, app.sim().now(),
                                   static_cast<int>(group_index));
  const std::size_t child_slot = v->span->children.size() - 1;

  SoftResourcePool* gate = edge_pool(call.edge_index);

  // Dispatch once the connection gate admits us; when the response returns,
  // release the connection, stamp the return time, and advance the group
  // after all peer calls have finished. `child` stays valid across the
  // request hop: the span is open until its own visit closes it, and a
  // trace is never assembled while one of its spans is open.
  auto launch = [this, v, child, gate, target, group_index, child_slot] {
    // Request hop.
    svc_.app().deliver([this, v, child, gate, target, group_index,
                        child_slot] {
      target->dispatch(
          *child,
          RequestMeta{v->request_class, v->priority, v->deadline},
          [this, v, gate, group_index, child_slot] {
            // Response hop, back to the caller.
            svc_.app().deliver([this, v, gate, group_index, child_slot] {
              if (gate != nullptr) gate->release();
              Span& p = *v->span;
              p.children[child_slot].returned = svc_.app().sim().now();
              if (--v->pending_calls == 0) {
                p.downstream_wait += svc_.app().sim().now() - v->blocked_since;
                run_group(v, group_index + 1);
              }
            });
          });
    });
  };

  if (gate != nullptr) {
    gate->acquire(launch);
  } else {
    launch();
  }
}

void ServiceInstance::on_groups_done(Visit* v) {
  const SimTime demand =
      static_cast<SimTime>(v->behavior->response_sampler.sample(rng_));
  cpu_.submit(demand,
              reinterpret_cast<CpuScheduler::Token>(v) | kResponsePhase);
}

void ServiceInstance::issue_async_callbacks(Visit* v) {
  Application& app = svc_.app();
  Tracer& tracer = app.tracer();
  const SimTime now = app.sim().now();
  for (const CompiledAsyncCall& cb : v->behavior->async_callbacks) {
    Service* target = cb.target;
    Span* child = &tracer.start_span(v->span->trace, v->span, target->id(),
                                     cb.request_class, now,
                                     /*parallel_group=*/-1, /*async=*/true);
    // No deadline: the user's response already departed, so there is
    // nothing left for the callback to be late for.
    app.deliver([target, child, cls = cb.request_class, prio = cb.priority] {
      target->dispatch(*child, RequestMeta{cls, prio, 0}, [] {});
    });
  }
}

void ServiceInstance::finish(Visit* v) {
  Application& app = svc_.app();
  if (!v->behavior->async_callbacks.empty()) issue_async_callbacks(v);
  app.tracer().finish_span(*v->span, app.sim().now());
  svc_.note_completion();
  svc_.note_request_departure(app.sim().now() - v->arrived, true);
  entry_pool_.release();
  --outstanding_;
  // Recycle the visit before running its continuation: `done` may start a
  // fresh request on this instance, which can then reuse the slot.
  Done done = std::move(v->done);
  free_visit(v);
  done();
}

void ServiceInstance::abort_visit(Visit* v) {
  Application& app = svc_.app();
  v->span->failed = true;
  app.tracer().finish_span(*v->span, app.sim().now());
  svc_.note_request_departure(app.sim().now() - v->arrived, false);
  entry_pool_.release();
  --outstanding_;
  ++visits_dropped_;
  app.metrics()
      .counter("fault.visits_dropped", {{"service", svc_.name()}})
      .add();
  Done done = std::move(v->done);
  free_visit(v);
  done();
}

}  // namespace sora
