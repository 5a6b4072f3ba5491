// Topology exporters: JSON and Graphviz DOT dumps of a synthesized
// topology, plus a human-readable stats summary (depth histogram, fan-out
// tail, shared-tier in-degree). Used by tools/gen_topology and the
// planet-scale bench; the JSON form is the round-trippable description a
// deployer would consume.
#pragma once

#include <iosfwd>

#include "topo/synth.h"

namespace sora::topo {

/// Dump the topology as JSON: config echo, services (name/tenant/depth/
/// cores/replicas), edges (sync + async), entry classes.
void write_json(std::ostream& os, const Topology& topo);

/// Graphviz digraph: entries as doubleoctagons, shared backends as
/// cylinders, async edges dashed. Tenants cluster into subgraphs.
void write_dot(std::ostream& os, const Topology& topo);

/// Plain-text stats block: counts, depth histogram, fan-out mean/p99/max,
/// shared-tier in-degree mean/max.
void write_stats(std::ostream& os, const Topology& topo);

}  // namespace sora::topo
