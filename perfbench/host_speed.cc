#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

// Keeps the kernel's result observable, so its work cannot be elided.
volatile std::uint64_t g_sink = 0;

struct Event {
  std::uint64_t at;
  std::uint32_t key;
  bool operator>(const Event& o) const { return at > o.at; }
};

/// One fixed run: 20000 pops and pushes on a 4096-event heap, each touching
/// one of 8192 hash-map entries whose small vectors grow and are released.
double one_run_ms() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> state;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64: fixed sequence
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) heap.push({next() % 1000000, i});
  std::uint64_t released = 0;
  for (std::uint32_t n = 0; n < 20000; ++n) {
    const Event e = heap.top();
    heap.pop();
    std::vector<std::uint32_t>& v = state[e.key % 8192];
    v.push_back(n);
    if (v.size() > 16) {
      released += v.size();
      std::vector<std::uint32_t>().swap(v);
    }
    heap.push({e.at + next() % 1000, static_cast<std::uint32_t>(next())});
  }
  g_sink = released;
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

double kernel_ms() {
  return std::min({one_run_ms(), one_run_ms(), one_run_ms()});
}

}  // namespace perfbench
