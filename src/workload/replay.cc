#include "workload/replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/rng.h"

namespace sora {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Shape of the synthesized trace (see ReplaySynthesisConfig).
constexpr double kDiurnalAmplitude = 0.35;  ///< fraction of base
constexpr double kDiurnalPeriodS = 300.0;
constexpr double kFlashWidthS = 25.0;  ///< spike sigma
constexpr double kInterferenceAmplitude = 0.08;  ///< fraction of base

/// Split one CSV line on commas (no quoting — rate traces are plain
/// numeric tables). Trailing \r from CRLF files is stripped.
std::vector<std::string> split_csv(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

ClusterTraceParse fail(std::string error) {
  ClusterTraceParse r;
  r.error = std::move(error);
  return r;
}

}  // namespace

WorkloadTrace ClusterTrace::tenant_trace(std::size_t c,
                                         double rate_scale) const {
  std::vector<std::pair<SimTime, double>> samples;
  samples.reserve(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    samples.emplace_back(times[i], rows[i][c] * rate_scale);
  }
  return WorkloadTrace::piecewise(std::move(samples));
}

ClusterTraceParse parse_cluster_trace_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) return fail("empty input");
  const std::vector<std::string> header = split_csv(std::move(line));
  if (header.empty() || header[0] != "time_s") {
    return fail("first column must be time_s");
  }
  if (header.size() < 2) return fail("no tenant columns");
  std::set<std::string> seen;
  for (std::size_t c = 1; c < header.size(); ++c) {
    if (header[c].empty()) return fail("empty tenant column name");
    if (!seen.insert(header[c]).second) {
      return fail("duplicate tenant column: " + header[c]);
    }
  }

  ClusterTraceParse result;
  ClusterTrace& trace = result.trace;
  trace.tenants.assign(header.begin() + 1, header.end());
  std::size_t row_no = 1;
  while (std::getline(in, line)) {
    ++row_no;
    if (line.empty() || line == "\r") continue;
    const std::vector<std::string> cells = split_csv(std::move(line));
    const std::string where = "row " + std::to_string(row_no);
    if (cells.size() != header.size()) {
      return fail(where + ": expected " + std::to_string(header.size()) +
                  " columns, got " + std::to_string(cells.size()));
    }
    double t_s = 0.0;
    if (!parse_double(cells[0], &t_s) || t_s < 0.0) {
      return fail(where + ": bad timestamp \"" + cells[0] + "\"");
    }
    const auto t = static_cast<SimTime>(std::llround(t_s * 1e6));
    if (!trace.times.empty() && t <= trace.times.back()) {
      return fail(where + ": timestamps must be strictly increasing");
    }
    std::vector<double> rates(cells.size() - 1);
    for (std::size_t c = 1; c < cells.size(); ++c) {
      double r = 0.0;
      if (!parse_double(cells[c], &r) || r < 0.0) {
        return fail(where + ": bad rate \"" + cells[c] + "\" for tenant " +
                    trace.tenants[c - 1]);
      }
      rates[c - 1] = r;
    }
    trace.times.push_back(t);
    trace.rows.push_back(std::move(rates));
  }
  if (trace.times.size() < 2) {
    return fail("need at least two data rows, got " +
                std::to_string(trace.times.size()));
  }
  result.ok = true;
  return result;
}

ClusterTraceParse parse_cluster_trace_csv(const std::string& text) {
  std::istringstream in(text);
  return parse_cluster_trace_csv(in);
}

std::string synthesize_cluster_trace_csv(const ReplaySynthesisConfig& cfg) {
  Rng rng(cfg.seed);
  struct TenantParams {
    double diurnal_phase;
    double interference_phase;
    double interference_period_s;
    std::vector<double> flash_at_s;
    std::vector<double> flash_height;  // fraction of base
  };
  // All randomness is drawn up front in tenant order, so the sample loop
  // below is a pure function of these parameters.
  std::vector<TenantParams> tenants;
  for (int t = 0; t < cfg.tenants; ++t) {
    TenantParams p;
    p.diurnal_phase = rng.uniform(0.0, 2.0 * kPi);
    p.interference_phase = rng.uniform(0.0, 2.0 * kPi);
    p.interference_period_s = rng.uniform(20.0, 45.0);
    for (int f = 0; f < cfg.flash_crowds; ++f) {
      p.flash_at_s.push_back(rng.uniform(0.15, 0.9) * cfg.duration_s);
      p.flash_height.push_back(cfg.flash_peak * rng.uniform(0.7, 1.3));
    }
    tenants.push_back(std::move(p));
  }

  std::string out = "time_s";
  for (int t = 0; t < cfg.tenants; ++t) {
    out += ",tenant" + std::to_string(t);
  }
  out += "\n";
  char buf[64];
  for (double t_s = 0.0; t_s <= cfg.duration_s + 1e-9; t_s += cfg.step_s) {
    std::snprintf(buf, sizeof(buf), "%.3f", t_s);
    out += buf;
    for (const TenantParams& p : tenants) {
      const double diurnal =
          1.0 + kDiurnalAmplitude *
                    std::sin(2.0 * kPi * t_s / kDiurnalPeriodS +
                             p.diurnal_phase);
      double flash = 0.0;
      for (std::size_t f = 0; f < p.flash_at_s.size(); ++f) {
        const double d = (t_s - p.flash_at_s[f]) / kFlashWidthS;
        flash += p.flash_height[f] * std::exp(-d * d);
      }
      const double interference =
          kInterferenceAmplitude *
          std::sin(2.0 * kPi * t_s / p.interference_period_s +
                   p.interference_phase);
      const double rate =
          std::max(0.0, cfg.base_rps * (diurnal + flash + interference));
      std::snprintf(buf, sizeof(buf), ",%.3f", rate);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

ReplayWorkloadSource::ReplayWorkloadSource(ClusterTrace trace,
                                           double rate_scale)
    : trace_(std::move(trace)),
      rate_scale_(rate_scale),
      mixes_(trace_.tenants.size(), RequestMix(0)) {}

void ReplayWorkloadSource::set_tenant_mix(std::size_t c, RequestMix mix) {
  mixes_.at(c) = std::move(mix);
}

void ReplayWorkloadSource::bind(Simulator& sim, LoadTarget& target,
                                std::uint64_t seed,
                                CompletionObserver observer) {
  generators_.clear();
  for (std::size_t c = 0; c < trace_.tenants.size(); ++c) {
    auto gen = std::make_unique<OpenLoopGenerator>(
        sim, target, trace_.tenant_trace(c, rate_scale_),
        seed ^ (0xc2b2ae3d27d4eb4fULL + c));
    gen->set_mix(mixes_[c]);
    gen->set_observer(observer);
    generators_.push_back(std::move(gen));
  }
}

void ReplayWorkloadSource::start() {
  for (auto& gen : generators_) gen->start();
}

void ReplayWorkloadSource::stop() {
  for (auto& gen : generators_) gen->stop();
}

std::uint64_t ReplayWorkloadSource::injected() const {
  std::uint64_t total = 0;
  for (const auto& gen : generators_) total += gen->injected();
  return total;
}

}  // namespace sora
