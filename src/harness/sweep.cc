#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.h"

namespace sora {

int SweepRunner::default_worker_count() {
  const char* env = std::getenv("SORA_SWEEP_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && n > 0 &&
        n <= INT_MAX) {
      return static_cast<int>(n);
    }
    SORA_WARN << "sweep: ignoring unparseable SORA_SWEEP_THREADS=\"" << env
              << '"';
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

SweepRunner::SweepRunner(int threads)
    : threads_(threads > 0 ? threads : default_worker_count()) {}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        // Drain the remaining indices so peers exit promptly.
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sora
