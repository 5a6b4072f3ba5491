// Declarative description of a microservice application topology.
//
// An application is a set of services; each service declares its CPU limit,
// its soft-resource pools (entry thread pool, per-target connection pools)
// and, per request class, its CPU demands and downstream call graph. The
// Application compiles these declarations into runnable services.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "admission/request.h"
#include "svc/soft_resource.h"

namespace sora {

/// CPU demand distribution: lognormal with the given mean (microseconds of
/// work on one core) and coefficient of variation.
struct DemandSpec {
  double mean_us = 0.0;
  double cv = 0.4;
};

/// One group of downstream calls issued concurrently. Groups execute in
/// order; a sequential chain is a list of singleton groups.
struct CallGroup {
  std::vector<std::string> targets;
};

/// Fire-and-forget notification issued as a visit completes — the async
/// callback edge that expresses cross-service cycles (cache invalidation,
/// write-behind, webhooks) without deadlocking the synchronous request
/// path. The caller's response never waits on it.
struct AsyncCallback {
  std::string target;
  /// Request class the callback runs under at the target. Give the target
  /// an explicit terminal behaviour for this class: the class-0 fallback
  /// would re-trigger the target's own async edges and could loop forever.
  int request_class = 0;
  Priority priority = Priority::kHigh;
};

/// Behaviour of a service for one request class.
struct ClassBehavior {
  DemandSpec request_demand;   ///< CPU before any downstream call.
  DemandSpec response_demand;  ///< CPU after downstream calls return.
  std::vector<CallGroup> call_groups;
  /// Issued after the response departs; spans stay in the parent trace.
  std::vector<AsyncCallback> async_callbacks;
};

/// Connection pool owned by a caller, gating its RPCs to one target.
struct EdgePoolConfig {
  int size = 0;  ///< 0 = no gate (unlimited).
  PoolKind kind = PoolKind::kClientConnections;
};

struct ServiceConfig {
  std::string name;

  /// CPU limit per replica, in cores (fractional allowed).
  double cores = 2.0;

  /// Multithreading overhead coefficient (see CpuScheduler). Typical values
  /// 0.3-1.0; larger = steeper penalty for over-allocation.
  double overhead_beta = 0.5;

  /// Entry pool (server threads) per replica. 0 = effectively unlimited
  /// (e.g. a Golang service with goroutine-per-request).
  int entry_pool_size = 0;
  PoolKind entry_pool_kind = PoolKind::kServerThreads;

  /// Per-target connection pools (per replica), keyed by target service
  /// name. Targets not listed are called without a gate.
  std::map<std::string, EdgePoolConfig> edge_pools;

  /// Behaviour per request class. Class 0 is the fallback for classes
  /// without an explicit entry.
  std::map<int, ClassBehavior> classes;

  int initial_replicas = 1;

  // -- convenience builders ----------------------------------------------

  ServiceConfig& with_cores(double c) {
    cores = c;
    return *this;
  }
  ServiceConfig& with_entry_pool(int size,
                                 PoolKind kind = PoolKind::kServerThreads) {
    entry_pool_size = size;
    entry_pool_kind = kind;
    return *this;
  }
  ServiceConfig& with_edge_pool(const std::string& target, int size,
                                PoolKind kind = PoolKind::kClientConnections) {
    edge_pools[target] = EdgePoolConfig{size, kind};
    return *this;
  }
  ServiceConfig& with_demand(int request_class, double req_mean_us,
                             double resp_mean_us, double cv = 0.4) {
    auto& b = classes[request_class];
    b.request_demand = DemandSpec{req_mean_us, cv};
    b.response_demand = DemandSpec{resp_mean_us, cv};
    return *this;
  }
  ServiceConfig& with_call(int request_class,
                           const std::string& target) {
    classes[request_class].call_groups.push_back(CallGroup{{target}});
    return *this;
  }
  ServiceConfig& with_parallel_calls(int request_class,
                                     std::vector<std::string> targets) {
    classes[request_class].call_groups.push_back(
        CallGroup{std::move(targets)});
    return *this;
  }
  ServiceConfig& with_async_callback(int request_class,
                                     const std::string& target,
                                     int callback_class,
                                     Priority priority = Priority::kHigh) {
    classes[request_class].async_callbacks.push_back(
        AsyncCallback{target, callback_class, priority});
    return *this;
  }
  ServiceConfig& with_replicas(int n) {
    initial_replicas = n;
    return *this;
  }
  ServiceConfig& with_overhead(double beta) {
    overhead_beta = beta;
    return *this;
  }
};

struct ApplicationConfig {
  std::vector<ServiceConfig> services;
  /// Entry (front-end) service per request class; class 0 entry is the
  /// fallback.
  std::map<int, std::string> entry_service;
  /// One-way network latency added to each inter-service message
  /// (paper assumes negligible; default 0).
  SimTime network_latency = 0;
  /// End-to-end deadline stamped onto injected requests that carry none
  /// (0 = requests stay deadline-free). Deadline-aware admission shedding
  /// keys off this.
  SimTime request_sla = 0;
};

}  // namespace sora
