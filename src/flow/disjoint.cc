#include "flow/disjoint.h"

#include "flow/decompose.h"
#include "obs/trace.h"

namespace krsp::flow {

std::optional<DisjointPaths> min_weight_disjoint_paths(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws,
    const SinkDistances* sink) {
  KRSP_OBS_SPAN("mcmf");
  KRSP_CHECK(w_cost >= 0 && w_delay >= 0);
  std::optional<McfWorkspace> local;
  if (ws == nullptr) ws = &local.emplace();
  const auto flow = ws->min_weight_flow(g, s, t, k, w_cost, w_delay, sink);
  if (!flow) return std::nullopt;
  auto decomposition = decompose_unit_flow(g, *flow, s, t, k);
  // Cycles in a *minimum-weight* flow have zero weight (else the flow were
  // not optimal); drop them — with non-negative edge weights this never
  // increases cost or delay of the path system.
  DisjointPaths result;
  result.paths = std::move(decomposition.paths);
  for (const auto& p : result.paths) {
    result.total_cost += graph::path_cost(g, p);
    result.total_delay += graph::path_delay(g, p);
  }
  return result;
}

}  // namespace krsp::flow
