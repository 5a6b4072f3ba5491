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
  metrics.counter("sim.events_rescheduled").set_total(
      static_cast<double>(events_rescheduled()));
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
  ++rec.gen;  // invalidates outstanding handles
  rec.heap_pos = kNilSlot;
  rec.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_live(slot, gen)) return;
  const std::uint32_t pos = records_[slot].heap_pos;
  if (pos != kNilSlot) erase_at(pos);  // periodic anchors own no entry
  release_slot(slot);  // frees the callback's captures immediately
  ++events_cancelled_;
}

bool Simulator::reschedule(const EventHandle& h, SimTime at) {
  assert(at >= now_ && "cannot schedule in the past");
  if (h.sim_ != this || !slot_live(h.slot_, h.gen_)) return false;
  const std::uint32_t pos = records_[h.slot_].heap_pos;
  if (pos == kNilSlot) return false;  // periodic chain anchor
  HeapEntry e = heap_[pos];
  e.at = at;
  e.seq = next_seq_++;
  resift(pos, e);
  ++events_rescheduled_;
  return true;
}

void Simulator::sift_up(std::size_t pos, const HeapEntry& e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!fires_before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos, const HeapEntry& e) {
  const std::size_t n = heap_.size();
  while (2 * pos + 1 < n) {
    std::size_t child = 2 * pos + 1;
    if (child + 1 < n && fires_before(heap_[child + 1], heap_[child])) ++child;
    if (!fires_before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Simulator::resift(std::size_t pos, const HeapEntry& e) {
  if (pos > 0 && fires_before(e, heap_[(pos - 1) / 2])) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
}

void Simulator::erase_at(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) resift(pos, last);
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  assert(at >= now_ && "cannot schedule in the past");
  const std::uint32_t slot = alloc_slot();
  EventRecord& rec = records_[slot];
  rec.cb = std::move(cb);
  const std::uint32_t gen = rec.gen;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{at, next_seq_++, slot});
  return EventHandle(this, slot, gen);
}

void Simulator::grow_ring() {
  std::vector<HeapEntry> bigger(std::max<std::size_t>(16, 2 * ring_.size()));
  for (std::size_t i = 0; i < ring_size_; ++i) {
    bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_.swap(bigger);
  ring_head_ = 0;
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
  post_at(now_ + period, [this, period, chain_slot, chain_gen] {
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

Simulator::HeapEntry Simulator::pop(Source src) {
  if (src == Source::kIndexed) {
    const HeapEntry top = heap_.front();
    erase_at(0);
    return top;
  }
  if (src == Source::kPosted) {
    std::pop_heap(posted_.begin(), posted_.end(), fires_after);
    const HeapEntry top = posted_.back();
    posted_.pop_back();
    return top;
  }
  const HeapEntry front = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_size_;
  return front;
}

void Simulator::execute(const HeapEntry& e) {
  now_ = e.at;
  if (digest_enabled_) [[unlikely]] {
    fold_digest(static_cast<std::uint64_t>(e.at), e.seq);
  }
  // Free the slot before invoking so handles report !pending() inside the
  // callback and the slot is immediately reusable by new events.
  Callback cb = std::move(records_[e.slot].cb);
  release_slot(e.slot);
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
  Source src = Source::kIndexed;
  if (next_event(src) == nullptr) return false;
  const obs::StageTable::Install stages(stages_);
  execute(pop(src));
  return true;
}

void Simulator::run_until(SimTime until) {
  const obs::StageTable::Install stages(stages_);
  Source src = Source::kIndexed;
  for (;;) {
    const HeapEntry* e = next_event(src);
    if (e == nullptr || e->at > until) break;
    execute(pop(src));
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  const obs::StageTable::Install stages(stages_);
  Source src = Source::kIndexed;
  while (next_event(src) != nullptr) execute(pop(src));
}

}  // namespace sora
