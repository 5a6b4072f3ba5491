#include "obs/profiler.h"

#include <iomanip>

namespace sora::obs {

namespace {

thread_local StageTable* t_installed = nullptr;
thread_local StageTable t_fallback;

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kScgAggregate: return "scg.aggregate";
    case Stage::kScgEstimate: return "scg.estimate";
    case Stage::kScgKneedle: return "scg.kneedle";
    case Stage::kScgPolyfit: return "scg.polyfit";
    case Stage::kSoraControlRound: return "sora.control_round";
    case Stage::kSoraDeadlineProp: return "sora.deadline_prop";
    case Stage::kSoraLocalization: return "sora.localization";
    case Stage::kTraceCriticalPath: return "trace.critical_path";
  }
  return "unknown";
}

std::vector<StageStats> StageTable::stats() const {
  std::vector<StageStats> out;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Cell& c = cells_[i];
    if (c.calls == 0) continue;
    out.push_back(StageStats{stage_name(static_cast<Stage>(i)), c.calls,
                             c.total_us, c.max_us});
  }
  return out;
}

StageTable& StageTable::current() {
  return t_installed != nullptr ? *t_installed : t_fallback;
}

StageTable::Install::Install(StageTable& table) : previous_(t_installed) {
  t_installed = &table;
}

StageTable::Install::~Install() { t_installed = previous_; }

void StageTable::print(const std::vector<StageStats>& stats,
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
