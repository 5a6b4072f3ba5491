#include "svc/soft_resource.h"

#include <cassert>

namespace sora {

const char* to_string(PoolKind kind) {
  switch (kind) {
    case PoolKind::kServerThreads:
      return "server-threads";
    case PoolKind::kDbConnections:
      return "db-connections";
    case PoolKind::kClientConnections:
      return "client-connections";
  }
  return "?";
}

SoftResourcePool::SoftResourcePool(Simulator& sim, PoolKind kind,
                                   std::string name, int capacity)
    : sim_(sim), kind_(kind), name_(std::move(name)), capacity_(capacity) {
  assert(capacity >= 1);
  last_change_ = sim_.now();
}

void SoftResourcePool::account() {
  const SimTime now = sim_.now();
  use_integral_ += static_cast<double>(in_use_) *
                   static_cast<double>(now - last_change_);
  last_change_ = now;
}

void SoftResourcePool::release() {
  assert(in_use_ > 0 && "release without matching acquire");
  account();
  --in_use_;
  // Admit the next waiter if the (possibly shrunk) capacity allows.
  if (!waiters_.empty() && in_use_ < capacity_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    total_wait_time_ += sim_.now() - w.since;
    account();
    ++in_use_;
    w.grant();
  }
}

void SoftResourcePool::resize(int new_capacity) {
  assert(new_capacity >= 1);
  capacity_ = new_capacity;
  // Growth: admit newly fitting waiters immediately.
  while (!waiters_.empty() && in_use_ < capacity_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    total_wait_time_ += sim_.now() - w.since;
    account();
    ++in_use_;
    w.grant();
  }
}

double SoftResourcePool::usage_integral() const {
  return use_integral_ + static_cast<double>(in_use_) *
                             static_cast<double>(sim_.now() - last_change_);
}

}  // namespace sora
