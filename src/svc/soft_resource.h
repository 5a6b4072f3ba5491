// Soft-resource pools.
//
// A SoftResourcePool models the concurrency-gating software entities the
// paper calls "soft resources": server thread pools (SpringBoot Cart),
// database connection pools (Golang Catalogue) and RPC client connection
// pools (Thrift Home-Timeline -> Post Storage). A pool has a capacity;
// requests acquire a slot before proceeding and queue FIFO when none is
// free. Pools are resizable at runtime with live semantics: growing admits
// waiters immediately, shrinking takes effect lazily as slots are released
// (mirroring how JMX/Jolokia thread-pool resizes and database/sql
// SetMaxOpenConns behave).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/function.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace sora {

enum class PoolKind {
  kServerThreads,      ///< gates request handling at a service instance
  kDbConnections,      ///< gates calls into a database child
  kClientConnections,  ///< gates RPCs from a caller to one callee service
};

const char* to_string(PoolKind kind);

class SoftResourcePool {
 public:
  using Grant = UniqueFunction;

  SoftResourcePool(Simulator& sim, PoolKind kind, std::string name,
                   int capacity);

  /// Request a slot. If one is free `grant` (any `void()` callable) runs
  /// synchronously; otherwise the request queues FIFO, with the grant built
  /// directly in its waiter, and runs when a slot frees up.
  template <typename F>
  void acquire(F&& grant) {
    ++total_acquires_;
    if (in_use_ < capacity_) {
      account();
      ++in_use_;
      grant();
      return;
    }
    ++total_waits_;
    Waiter& w = waiters_.emplace_back();
    w.grant.emplace(std::forward<F>(grant));
    w.since = sim_.now();
  }

  /// Return a slot, admitting the next waiter if any.
  void release();

  /// Change capacity at runtime. Growth admits as many waiters as newly fit;
  /// shrinking never revokes slots already in use.
  void resize(int new_capacity);

  int capacity() const { return capacity_; }
  int in_use() const { return in_use_; }
  std::size_t waiting() const { return waiters_.size(); }
  PoolKind kind() const { return kind_; }
  const std::string& name() const { return name_; }

  // -- metrics ---------------------------------------------------------------

  /// Cumulative integral of in_use over time (slot-microseconds) up to now.
  /// Observers snapshot this and divide deltas by elapsed time to get the
  /// exact time-averaged concurrency over their own window — the
  /// concurrency axis of the SCG scatter graph.
  double usage_integral() const;

  std::uint64_t total_acquires() const { return total_acquires_; }
  std::uint64_t total_waits() const { return total_waits_; }
  /// Cumulative microseconds spent by requests in the wait queue.
  SimTime total_wait_time() const { return total_wait_time_; }

 private:
  struct Waiter {
    Grant grant;
    SimTime since = 0;
  };

  void account();  ///< fold elapsed time into the usage integral.

  Simulator& sim_;
  PoolKind kind_;
  std::string name_;
  int capacity_;
  int in_use_ = 0;

  std::deque<Waiter> waiters_;

  // usage integral for time-averaged concurrency
  SimTime last_change_ = 0;
  double use_integral_ = 0.0;  // microseconds x slots

  std::uint64_t total_acquires_ = 0;
  std::uint64_t total_waits_ = 0;
  SimTime total_wait_time_ = 0;
};

}  // namespace sora
