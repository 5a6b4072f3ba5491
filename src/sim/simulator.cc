#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"

namespace sora {

Simulator::Simulator() {
  set_log_clock(this, [](const void* ctx) {
    return static_cast<const Simulator*>(ctx)->now();
  });
}

Simulator::~Simulator() { clear_log_clock(this); }

void Simulator::publish_metrics(obs::MetricsRegistry& metrics) const {
  metrics.counter("sim.events_executed").set_total(
      static_cast<double>(events_executed()));
  metrics.counter("sim.events_cancelled").set_total(
      static_cast<double>(events_cancelled()));
  metrics.gauge("sim.events_pending").set(
      static_cast<double>(events_pending()));
  metrics.gauge("sim.now_us").set(static_cast<double>(now()));
}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = records_[slot].next_free;
    return slot;
  }
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  EventRecord& rec = records_[slot];
  rec.cb.reset();
  ++rec.gen;  // invalidates outstanding handles and heap entries
  rec.queued = false;
  rec.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_live(slot, gen)) return;
  const bool was_queued = records_[slot].queued;
  release_slot(slot);  // frees the callback's captures immediately
  ++events_cancelled_;
  if (was_queued) {
    ++stale_in_heap_;
    if (heap_.size() >= kCompactMinHeap && stale_in_heap_ * 2 > heap_.size()) {
      compact();
    }
  }
}

void Simulator::compact() {
  std::erase_if(heap_, [this](const HeapEntry& e) {
    return records_[e.slot].gen != e.gen;
  });
  std::make_heap(heap_.begin(), heap_.end(), FiresAfter{});
  stale_in_heap_ = 0;
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  assert(at >= now_ && "cannot schedule in the past");
  const std::uint32_t slot = alloc_slot();
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  rec.queued = true;
  heap_.push_back(HeapEntry{at, next_seq_++, slot, rec.gen});
  std::push_heap(heap_.begin(), heap_.end(), FiresAfter{});
  return EventHandle(this, slot, rec.gen);
}

EventHandle Simulator::schedule_periodic(SimTime period, Callback cb) {
  assert(period > 0);
  // The chain's user callback lives in an anchor slot that is never queued;
  // each firing is a small one-shot event referencing the anchor. Cancelling
  // the handle frees the anchor, so the next tick sees a stale generation
  // and the chain stops (and its state is already released).
  const std::uint32_t slot = alloc_slot();
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  const std::uint32_t gen = rec.gen;
  schedule_tick(period, slot, gen);
  return EventHandle(this, slot, gen);
}

void Simulator::schedule_tick(SimTime period, std::uint32_t chain_slot,
                              std::uint32_t chain_gen) {
  schedule_at(now_ + period, [this, period, chain_slot, chain_gen] {
    if (!slot_live(chain_slot, chain_gen)) return;  // cancelled
    // Run the callback from a local so the slab may grow (or the chain
    // cancel itself) underneath us, then put it back if the chain survived.
    Callback cb = std::move(records_[chain_slot].cb);
    cb();
    if (slot_live(chain_slot, chain_gen)) {
      records_[chain_slot].cb = std::move(cb);
      schedule_tick(period, chain_slot, chain_gen);
    }
  });
}

const Simulator::HeapEntry* Simulator::live_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (records_[top.slot].gen == top.gen) return &top;
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter{});
    heap_.pop_back();
    --stale_in_heap_;
  }
  return nullptr;
}

void Simulator::execute_top() {
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), FiresAfter{});
  heap_.pop_back();
  now_ = top.at;
  if (digest_enabled_) [[unlikely]] {
    fold_digest(static_cast<std::uint64_t>(top.at), top.seq);
  }
  // Free the slot before invoking so handles report !pending() inside the
  // callback and the slot is immediately reusable by new events.
  Callback cb = std::move(records_[top.slot].cb);
  release_slot(top.slot);
  ++events_executed_;
  cb();
}

void Simulator::fold_digest(std::uint64_t at, std::uint64_t seq) {
  // FNV-1a over the (time, seq) pair of every executed event: a full
  // fingerprint of the schedule without touching callback state.
  const auto fold = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (i * 8)) & 0xff;
      digest_ *= 1099511628211ULL;  // FNV prime
    }
  };
  fold(at);
  fold(seq);
}

bool Simulator::step() {
  if (live_top() == nullptr) return false;
  execute_top();
  return true;
}

void Simulator::run_until(SimTime until) {
  for (const HeapEntry* top; (top = live_top()) != nullptr && top->at <= until;) {
    execute_top();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  while (live_top() != nullptr) execute_top();
}

}  // namespace sora
