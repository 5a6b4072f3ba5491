#include "svc/cpu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace sora {

namespace {
// Slack when matching virtual finish tags: tags are microseconds of work, so
// 1e-3 is one nanosecond of residual demand.
constexpr double kTagEps = 1e-3;
}  // namespace

CpuScheduler::CpuScheduler(Simulator& sim, double cores, double overhead_beta,
                           Handler on_done, void* owner)
    : sim_(sim),
      on_done_(on_done),
      owner_(owner),
      cores_(cores),
      beta_(overhead_beta) {
  assert(cores > 0.0);
  assert(overhead_beta >= 0.0);
  last_advance_ = sim_.now();
}

double CpuScheduler::rate_uncached(int n) const {
  const double nd = static_cast<double>(n);
  double r = std::min(1.0, cores_ / nd);
  if (nd > cores_) {
    r /= 1.0 + beta_ * std::log1p((nd - cores_) / cores_);
  }
  return r;
}

double CpuScheduler::rate(int n) const {
  if (n <= 0) return 1.0;
  const auto idx = static_cast<std::size_t>(n);
  if (idx >= rate_cache_.size()) {
    rate_cache_.reserve(idx + 16);
    for (std::size_t i = rate_cache_.size(); i <= idx + 15; ++i) {
      rate_cache_.push_back(rate_uncached(static_cast<int>(i)));
    }
  }
  return rate_cache_[idx];
}

void CpuScheduler::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_advance_;
  if (dt <= 0) return;
  const int n = static_cast<int>(heap_.size());
  if (n > 0) {
    v_ += static_cast<double>(dt) * rate(n);
    // Cores occupied: overhead keeps the CPU busy even when useful progress
    // is degraded, matching what a utilization probe (cAdvisor) reports.
    busy_integral_ +=
        static_cast<double>(dt) * std::min(static_cast<double>(n), cores_);
  }
  last_advance_ = now;
}

void CpuScheduler::reschedule() {
  if (heap_.empty()) {
    completion_event_.cancel();
    return;
  }
  const double remaining_v = heap_.front().tag - v_;
  const double r = rate(static_cast<int>(heap_.size()));
  const double dt = std::max(remaining_v, 0.0) / r;
  const SimTime at = sim_.now() + std::max<SimTime>(
      0, static_cast<SimTime>(std::ceil(dt)));
  // Move the live completion event in place; only after it fired (the
  // complete_front path) is there none to move.
  if (!sim_.reschedule(completion_event_, at)) {
    completion_event_ = sim_.schedule_at(at, [this] { complete_front(); });
  }
}

void CpuScheduler::complete_front() {
  advance();
  // Typically exactly one job finishes per completion event; keep that case
  // free of heap traffic and only spill ties into a vector. Every finished
  // token is gathered, in key order, before any handler runs: a handler may
  // submit, and its new job must not join this sweep.
  Token first = 0;
  std::vector<Token> rest;
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().tag <= v_ + kTagEps) {
    const Token token = pop_front();
    if (n++ == 0) {
      first = token;
    } else {
      rest.push_back(token);
    }
  }
  if (n == 0 && !heap_.empty()) {
    // Rounding scheduled us a hair early; the front job has sub-nanosecond
    // residual work. Complete it rather than spin.
    first = pop_front();
    n = 1;
  }
  jobs_completed_ += n;
  reschedule();
  if (n > 0) on_done_(owner_, first);
  for (const Token token : rest) on_done_(owner_, token);
}

void CpuScheduler::submit(SimTime demand, Token token) {
  if (demand <= 0) {
    ++jobs_completed_;
    on_done_(owner_, token);
    return;
  }
  advance();
  // Sift the new key up from the end (hole technique).
  const JobKey key{v_ + static_cast<double>(demand), next_seq_++, token};
  std::size_t pos = heap_.size();
  heap_.emplace_back();
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!finishes_before(key, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = key;
  reschedule();
}

CpuScheduler::Token CpuScheduler::pop_front() {
  const Token token = heap_.front().token;
  // Sift the last key down from the root (hole technique).
  const JobKey last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t pos = 0;
    while (2 * pos + 1 < n) {
      std::size_t child = 2 * pos + 1;
      if (child + 1 < n && finishes_before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!finishes_before(heap_[child], last)) break;
      heap_[pos] = heap_[child];
      pos = child;
    }
    heap_[pos] = last;
  }
  return token;
}

void CpuScheduler::set_cores(double cores) {
  assert(cores > 0.0);
  advance();
  cores_ = cores;
  rate_cache_.clear();
  reschedule();
}

double CpuScheduler::busy_integral() const {
  double busy = busy_integral_;
  const int n = static_cast<int>(heap_.size());
  if (n > 0) {
    busy += static_cast<double>(sim_.now() - last_advance_) *
            std::min(static_cast<double>(n), cores_);
  }
  return busy;
}

}  // namespace sora
