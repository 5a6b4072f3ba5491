#include "topo/export.h"

#include <ostream>

namespace sora::topo {

namespace {

const char* tier_of(const Topology& topo, std::size_t i) {
  if (topo.tenant_of[i] >= 0) return topo.depth[i] == 0 ? "entry" : "mid";
  const std::string& name = topo.app.services[i].name;
  if (name.rfind("db", 0) == 0) return "db";
  if (name.rfind("cache", 0) == 0) return "cache";
  return "blob";
}

}  // namespace

void write_json(std::ostream& os, const Topology& topo) {
  os << "{\n";
  os << "  \"seed\": " << topo.config.seed << ",\n";
  os << "  \"services\": " << topo.app.services.size() << ",\n";
  os << "  \"tenants\": " << topo.config.tenants << ",\n";
  os << "  \"callback_class\": " << topo.callback_class << ",\n";
  os << "  \"entry_classes\": {";
  bool first = true;
  for (const auto& [cls, name] : topo.app.entry_service) {
    os << (first ? "" : ", ") << "\"" << cls << "\": \"" << name << "\"";
    first = false;
  }
  os << "},\n";
  os << "  \"nodes\": [\n";
  for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
    const ServiceConfig& s = topo.app.services[i];
    os << "    {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"tier\": \"" << tier_of(topo, i)
       << "\", \"tenant\": " << topo.tenant_of[i]
       << ", \"depth\": " << topo.depth[i] << ", \"cores\": " << s.cores
       << ", \"replicas\": " << s.initial_replicas << "}"
       << (i + 1 < topo.app.services.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"edges\": [\n";
  for (std::size_t i = 0; i < topo.edges.size(); ++i) {
    const TopologyEdge& e = topo.edges[i];
    os << "    {\"from\": " << e.from << ", \"to\": " << e.to
       << ", \"async\": " << (e.async ? "true" : "false") << "}"
       << (i + 1 < topo.edges.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

void write_dot(std::ostream& os, const Topology& topo) {
  os << "digraph topology {\n  rankdir=LR;\n  node [shape=box];\n";
  for (int t = 0; t < topo.config.tenants; ++t) {
    os << "  subgraph cluster_t" << t << " {\n    label=\""
       << topo.tenant_names[static_cast<std::size_t>(t)] << "\";\n";
    for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
      if (topo.tenant_of[i] != t) continue;
      os << "    \"" << topo.app.services[i].name << "\"";
      if (topo.depth[i] == 0) os << " [shape=doubleoctagon]";
      os << ";\n";
    }
    os << "  }\n";
  }
  for (std::size_t i = 0; i < topo.app.services.size(); ++i) {
    if (topo.tenant_of[i] >= 0) continue;
    os << "  \"" << topo.app.services[i].name << "\" [shape=cylinder];\n";
  }
  for (const TopologyEdge& e : topo.edges) {
    os << "  \"" << topo.app.services[static_cast<std::size_t>(e.from)].name
       << "\" -> \""
       << topo.app.services[static_cast<std::size_t>(e.to)].name << "\"";
    if (e.async) os << " [style=dashed, color=gray]";
    os << ";\n";
  }
  os << "}\n";
}

void write_stats(std::ostream& os, const Topology& topo) {
  const TopologyStats s = topo.stats();
  os << "services: " << s.services << " (entries " << s.entries << ", mid "
     << s.mid_services << ", shared " << s.shared_services << ")\n";
  os << "tenants: " << s.tenants << " (classes/tenant "
     << topo.classes_per_tenant << ")\n";
  os << "edges: " << s.sync_edges << " sync, " << s.async_edges << " async\n";
  os << "depth histogram:";
  for (std::size_t d = 0; d < s.depth_histogram.size(); ++d) {
    os << " " << d << ":" << s.depth_histogram[d];
  }
  os << "\n";
  os << "fanout: mean " << s.fanout_mean << ", p99 " << s.fanout_p99
     << ", max " << s.fanout_max << "\n";
  os << "shared in-degree: mean " << s.shared_in_degree_mean << ", max "
     << s.shared_in_degree_max << "\n";
}

}  // namespace sora::topo
