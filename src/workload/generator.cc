#include "workload/generator.h"

#include <cassert>

namespace sora {

RequestMix::RequestMix(int request_class) {
  weights_.emplace_back(request_class, 1.0);
  total_ = 1.0;
}

RequestMix::RequestMix(std::initializer_list<std::pair<int, double>> weights) {
  set_weights(std::vector<std::pair<int, double>>(weights));
}

void RequestMix::set_weights(std::vector<std::pair<int, double>> weights) {
  assert(!weights.empty());
  weights_ = std::move(weights);
  total_ = 0.0;
  for (const auto& [cls, w] : weights_) {
    assert(w >= 0.0);
    total_ += w;
  }
  assert(total_ > 0.0);
}

RequestMix& RequestMix::with_priority(int request_class, Priority priority) {
  for (auto& [cls, p] : priorities_) {
    if (cls == request_class) {
      p = priority;
      return *this;
    }
  }
  priorities_.emplace_back(request_class, priority);
  return *this;
}

Priority RequestMix::priority_of(int request_class) const {
  for (const auto& [cls, p] : priorities_) {
    if (cls == request_class) return p;
  }
  return Priority::kHigh;
}

int RequestMix::sample(Rng& rng) const {
  if (weights_.size() == 1) return weights_.front().first;
  double u = rng.uniform() * total_;
  for (const auto& [cls, w] : weights_) {
    u -= w;
    if (u <= 0.0) return cls;
  }
  return weights_.back().first;
}

// ---------------------------------------------------------------------------
// OpenLoopGenerator: thinning sampler for a non-homogeneous Poisson process.
// ---------------------------------------------------------------------------

OpenLoopGenerator::OpenLoopGenerator(Simulator& sim, LoadTarget& target,
                                     WorkloadTrace trace, std::uint64_t seed)
    : sim_(sim), target_(target), trace_(trace), rng_(seed) {}

void OpenLoopGenerator::start() {
  assert(!running_);
  running_ = true;
  start_time_ = sim_.now();
  schedule_next();
}

void OpenLoopGenerator::stop() {
  running_ = false;
  next_.cancel();
}

void OpenLoopGenerator::schedule_next() {
  if (!running_) return;
  const double lambda_max = trace_.max_rate();
  assert(lambda_max > 0.0);
  // Thinning: propose candidate arrivals at the peak rate; accept each with
  // probability rate(t)/lambda_max. Exact for rate(t) <= lambda_max.
  SimTime t = sim_.now();
  for (;;) {
    const double gap_sec = rng_.exponential(1.0 / lambda_max);
    t += std::max<SimTime>(1, sec_f(gap_sec));
    if (t - start_time_ > trace_.duration()) {
      running_ = false;
      return;
    }
    const double accept = trace_.rate_at(t - start_time_) / lambda_max;
    if (rng_.uniform() < accept) break;
  }
  next_ = sim_.schedule_at(t, [this] {
    const int cls = mix_.sample(rng_);
    const SimTime injected_at = sim_.now();
    ++injected_;
    RequestMeta meta;
    meta.request_class = cls;
    meta.priority = mix_.priority_of(cls);
    target_.inject(meta, [this, injected_at, cls](SimTime rt, bool ok) {
      if (observer_) observer_(injected_at, cls, rt, ok);
    });
    schedule_next();
  });
}

// ---------------------------------------------------------------------------
// ClosedLoopGenerator
// ---------------------------------------------------------------------------

ClosedLoopGenerator::ClosedLoopGenerator(Simulator& sim, LoadTarget& target,
                                         int num_users, SimTime think_time_mean,
                                         std::uint64_t seed)
    : sim_(sim),
      target_(target),
      target_users_(num_users),
      think_mean_(think_time_mean),
      rng_(seed) {}

void ClosedLoopGenerator::start() {
  assert(!running_);
  running_ = true;
  while (live_users_ < target_users_) spawn_user();
}

void ClosedLoopGenerator::stop() {
  running_ = false;
  trace_tick_.cancel();
}

void ClosedLoopGenerator::follow_trace(const WorkloadTrace& trace,
                                       SimTime update_period) {
  const SimTime start = sim_.now();
  trace_tick_ = sim_.schedule_periodic(update_period, [this, trace, start] {
    const SimTime elapsed = sim_.now() - start;
    if (elapsed > trace.duration()) {
      trace_tick_.cancel();
      set_users(0);
      return;
    }
    set_users(static_cast<int>(trace.rate_at(elapsed)));
  });
  set_users(static_cast<int>(trace.rate_at(0)));
}

void ClosedLoopGenerator::set_users(int num_users) {
  target_users_ = num_users;
  if (!running_) return;
  while (live_users_ < target_users_) spawn_user();
  // Excess users retire inside user_loop when they notice the new target.
}

void ClosedLoopGenerator::spawn_user() {
  ++live_users_;
  // Stagger initial arrivals with a random fraction of a think time so the
  // population does not fire in lockstep.
  const SimTime stagger =
      static_cast<SimTime>(rng_.uniform() * static_cast<double>(think_mean_));
  sim_.post_after(stagger, [this] { user_loop(); });
}

void ClosedLoopGenerator::user_loop() {
  if (!running_ || live_users_ > target_users_) {
    --live_users_;
    return;
  }
  const int cls = mix_.sample(rng_);
  const SimTime injected_at = sim_.now();
  ++injected_;
  RequestMeta meta;
  meta.request_class = cls;
  meta.priority = mix_.priority_of(cls);
  target_.inject(meta, [this, injected_at, cls](SimTime rt, bool ok) {
    if (observer_) observer_(injected_at, cls, rt, ok);
    const SimTime think = static_cast<SimTime>(
        rng_.exponential(static_cast<double>(think_mean_)));
    sim_.post_after(std::max<SimTime>(1, think), [this] { user_loop(); });
  });
}

}  // namespace sora
