// Parallel experiment sweep runner.
//
// Every figure/table bench is a sweep of independent Experiment runs
// (different knob settings and/or seeds). Each run owns its Simulator,
// Tracer and Application (and, through its Simulator, its stage profile),
// so runs share no mutable state and can execute on worker threads; the
// process-wide pieces they do touch (the SORA_LOG clock, the log sink) are
// thread-safe or thread-local. SweepRunner fans runs out across a thread pool and returns
// results **in index order**, so a parallel sweep emits byte-identical
// tables to a serial one — determinism comes from per-run seeds, not from
// scheduling.
//
// Worker count: explicit constructor argument, else SORA_SWEEP_THREADS,
// else std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace sora {

class SweepRunner {
 public:
  /// `threads` <= 0 selects default_worker_count().
  explicit SweepRunner(int threads = 0);

  /// SORA_SWEEP_THREADS when set (clamped to >= 1), else hardware
  /// concurrency, else 1.
  static int default_worker_count();

  int threads() const { return threads_; }

  /// Run fn(0) ... fn(n-1) across the pool and return the results ordered
  /// by index. `fn` must be safe to invoke concurrently from different
  /// threads (each call should build its own Experiment). The first
  /// exception thrown by any call is rethrown here after all workers stop.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<std::optional<R>> slots(n);
    run_indexed(n, [&fn, &slots](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// Convenience overload: one call per item, results in item order.
  template <typename Item, typename Fn>
  auto map(const std::vector<Item>& items, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const Item&>> {
    return map(items.size(),
               [&](std::size_t i) { return fn(items[i]); });
  }

 private:
  /// Dispatch body(i) for i in [0, n) over the worker pool; blocks until
  /// all indices completed (or an exception aborted the remainder).
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& body);

  int threads_;
};

}  // namespace sora
