// gen_topology: synthesize a planet-scale topology and dump it.
//
// Usage:
//   gen_topology [--services N] [--tenants N] [--entries N] [--seed S]
//                [--json | --dot | --stats] [--out FILE]
//
// --json (default) emits the machine-readable description. --dot renders
// Graphviz (tenant clusters, dashed async edges). --stats prints the
// distribution summary (depth histogram, fan-out p99, shared-tier
// in-degree).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "topo/export.h"
#include "topo/synth.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--services N] [--tenants N] [--entries N]\n"
               "          [--seed S] [--depth N] [--async-frac F]\n"
               "          [--json | --dot | --stats] [--out FILE]\n",
               argv0);
}

bool parse_int(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_dbl(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  sora::topo::TopologyConfig cfg;
  enum class Mode { kJson, kDot, kStats } mode = Mode::kJson;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    long long n = 0;
    double d = 0.0;
    if (std::strcmp(arg, "--json") == 0) {
      mode = Mode::kJson;
    } else if (std::strcmp(arg, "--dot") == 0) {
      mode = Mode::kDot;
    } else if (std::strcmp(arg, "--stats") == 0) {
      mode = Mode::kStats;
    } else if (std::strcmp(arg, "--services") == 0 && has_value &&
               parse_int(argv[++i], &n)) {
      cfg.services = static_cast<int>(n);
    } else if (std::strcmp(arg, "--tenants") == 0 && has_value &&
               parse_int(argv[++i], &n)) {
      cfg.tenants = static_cast<int>(n);
    } else if (std::strcmp(arg, "--entries") == 0 && has_value &&
               parse_int(argv[++i], &n)) {
      cfg.entries_per_tenant = static_cast<int>(n);
    } else if (std::strcmp(arg, "--seed") == 0 && has_value &&
               parse_int(argv[++i], &n)) {
      cfg.seed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(arg, "--depth") == 0 && has_value &&
               parse_int(argv[++i], &n)) {
      cfg.max_depth = static_cast<int>(n);
    } else if (std::strcmp(arg, "--async-frac") == 0 && has_value &&
               parse_dbl(argv[++i], &d)) {
      cfg.async_cycle_fraction = d;
    } else if (std::strcmp(arg, "--out") == 0 && has_value) {
      out_path = argv[++i];
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  sora::topo::Topology topo;
  try {
    topo = sora::topo::synthesize(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen_topology: %s\n", e.what());
    return 1;
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "gen_topology: cannot open %s\n", out_path.c_str());
      return 1;
    }
  }
  std::ostream& os = out_path.empty() ? std::cout : file;
  switch (mode) {
    case Mode::kJson:
      sora::topo::write_json(os, topo);
      break;
    case Mode::kDot:
      sora::topo::write_dot(os, topo);
      break;
    case Mode::kStats:
      sora::topo::write_stats(os, topo);
      break;
  }
  return 0;
}
