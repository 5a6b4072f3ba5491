#include "obs/profiler.h"

#include <algorithm>
#include <iomanip>

namespace sora::obs {

OverheadProfiler& OverheadProfiler::global() {
  static OverheadProfiler instance;
  return instance;
}

void OverheadProfiler::record(const char* stage, double us) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = stages_.find(std::string_view(stage));
  if (it == stages_.end()) it = stages_.emplace(stage, StageStats{stage}).first;
  StageStats& s = it->second;
  ++s.calls;
  s.total_us += us;
  s.max_us = std::max(s.max_us, us);
}

std::vector<StageStats> OverheadProfiler::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageStats> out;
  out.reserve(stages_.size());
  for (const auto& [_, s] : stages_) out.push_back(s);
  return out;
}

std::vector<StageStats> OverheadProfiler::stats_since(
    const std::vector<StageStats>& baseline) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageStats> out;
  for (const auto& [name, s] : stages_) {
    StageStats delta = s;
    for (const StageStats& b : baseline) {
      if (b.stage == name) {
        delta.calls -= b.calls;
        delta.total_us -= b.total_us;
        // max is not subtractable; keep the overall max as an upper bound.
        break;
      }
    }
    if (delta.calls > 0) out.push_back(std::move(delta));
  }
  return out;
}

double OverheadProfiler::total_us(const std::vector<StageStats>& stats,
                                  const std::string& prefix) {
  double total = 0.0;
  for (const StageStats& s : stats) {
    if (s.stage.rfind(prefix, 0) == 0) total += s.total_us;
  }
  return total;
}

void OverheadProfiler::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
}

void OverheadProfiler::print(const std::vector<StageStats>& stats,
                             std::ostream& os) {
  os << std::left << std::setw(28) << "stage" << std::right << std::setw(10)
     << "calls" << std::setw(14) << "mean [us]" << std::setw(14) << "max [us]"
     << std::setw(14) << "total [ms]" << '\n';
  for (const StageStats& s : stats) {
    os << std::left << std::setw(28) << s.stage << std::right << std::setw(10)
       << s.calls << std::setw(14) << std::fixed << std::setprecision(2)
       << s.mean_us() << std::setw(14) << s.max_us << std::setw(14)
       << s.total_us / 1000.0 << '\n';
  }
  os.unsetf(std::ios::fixed);
}

}  // namespace sora::obs
