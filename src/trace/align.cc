#include "trace/align.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace sora {

namespace {

/// Resolve the caller service of `span` within `trace` (invalid ServiceId
/// for the root span — the client edge).
ServiceId parent_service(
    const std::unordered_map<std::uint64_t, ServiceId>& span_service,
    const Span& span) {
  if (!span.parent.valid()) return ServiceId{};  // root: the client edge
  const auto it = span_service.find(span.parent.value());
  return it == span_service.end() ? ServiceId{} : it->second;
}

std::uint64_t edge_key(ServiceId parent, ServiceId service) {
  return (parent.value() << 32) | (service.value() & 0xffffffffULL);
}

EdgeLatencyDelta& edge_slot(std::vector<EdgeLatencyDelta>& edges,
                            std::unordered_map<std::uint64_t, std::size_t>& idx,
                            ServiceId parent, ServiceId service) {
  const std::uint64_t key = edge_key(parent, service);
  const auto it = idx.find(key);
  if (it != idx.end()) return edges[it->second];
  idx.emplace(key, edges.size());
  edges.push_back(EdgeLatencyDelta{parent, service, 0, 0, 0});
  return edges.back();
}

}  // namespace

TraceAlignment align_spans(const Trace& base, const Trace& cf,
                           std::vector<EdgeLatencyDelta>& edges) {
  // Edge accumulation uses a per-call index rebuilt lazily: callers that
  // difference whole windows pass the same `edges` vector repeatedly, so the
  // index is reconstructed from it (edge counts are tiny — one entry per
  // call-graph edge, not per span).
  std::unordered_map<std::uint64_t, std::size_t> idx;
  idx.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    idx.emplace(edge_key(edges[i].parent, edges[i].service), i);
  }

  // parent-span -> service lookup for edge identity (baseline side names
  // the edge; the cf side only contributes timings).
  std::unordered_map<std::uint64_t, ServiceId> base_svc;
  base_svc.reserve(base.spans.size());
  for (const Span& s : base.spans) base_svc.emplace(s.id.value(), s.service);

  TraceAlignment out;
  std::size_t bi = 0, ci = 0;
  while (bi < base.spans.size() && ci < cf.spans.size()) {
    const Span& b = base.spans[bi];
    // Re-synchronize: find the next counterfactual span (from the cursor)
    // visiting the same service. Span creation order is deterministic, so a
    // match further ahead means the cf run inserted extra spans (all
    // unmatched); no match means the baseline span was dropped in the cf run.
    std::size_t probe = ci;
    while (probe < cf.spans.size() && !(cf.spans[probe].service == b.service)) {
      ++probe;
    }
    if (probe == cf.spans.size()) {
      ++out.base_unmatched;
      ++bi;
      continue;
    }
    out.cf_unmatched += probe - ci;
    ci = probe;
    const Span& c = cf.spans[ci];

    ++out.spans_aligned;
    EdgeLatencyDelta& e =
        edge_slot(edges, idx, parent_service(base_svc, b), b.service);
    ++e.aligned;
    e.base_duration += b.duration();
    e.cf_duration += c.duration();
    ++bi;
    ++ci;
  }
  out.base_unmatched += base.spans.size() - bi;
  out.cf_unmatched += cf.spans.size() - ci;
  return out;
}

DiffSummary diff_warehouses(const TraceWarehouse& base, const TraceWarehouse& cf,
                            SimTime from, SimTime to) {
  DiffSummary out;

  // Index the counterfactual side by TraceId (identical ids across runs).
  std::unordered_map<std::uint64_t, const Trace*> cf_by_id;
  cf_by_id.reserve(cf.size());
  cf.for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    if (t.start >= from && t.start <= to) cf_by_id.emplace(t.id.value(), &t);
  });

  base.for_each_in_window(0, kSimTimeNever, [&](const Trace& t) {
    if (t.start < from || t.start > to) return;
    const auto it = cf_by_id.find(t.id.value());
    if (it == cf_by_id.end()) {
      ++out.base_only;
      return;
    }
    const TraceAlignment a = align_spans(t, *it->second, out.edges);
    ++out.traces_aligned;
    out.spans_aligned += a.spans_aligned;
    out.spans_unmatched += a.base_unmatched + a.cf_unmatched;
    out.e2e_delta_ms +=
        to_msec(it->second->response_time() - t.response_time());
    cf_by_id.erase(it);
  });
  out.cf_only = cf_by_id.size();

  std::sort(out.edges.begin(), out.edges.end(),
            [](const EdgeLatencyDelta& a, const EdgeLatencyDelta& b) {
              const double da = std::abs(a.total_delta_ms());
              const double db = std::abs(b.total_delta_ms());
              if (da != db) return da > db;
              // Deterministic tie-break so profile output is bit-stable.
              if (!(a.service == b.service)) {
                return a.service.value() < b.service.value();
              }
              return a.parent.value() < b.parent.value();
            });
  return out;
}

}  // namespace sora
