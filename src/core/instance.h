// Problem instance type for kRSP (Definition 2 in the paper) plus
// construction helpers used across tests, benchmarks and examples.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "graph/digraph.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {

/// The query half of the paper's model (Definition 2), the one rule every
/// entry point applies: s and t are distinct vertices of an n-vertex
/// graph, 1 <= k <= INT_MAX and D >= 0. Takes int64 values as they arrive
/// from JSON and from container headers, before any narrowing. Returns
/// the first failing field's reason ("bad source 7", "bad sink -1",
/// "s == t", "k = 0", "D = -3"), or "" for a valid query. O(1).
[[nodiscard]] std::string query_error(std::int64_t n, std::int64_t s,
                                      std::int64_t t, std::int64_t k,
                                      std::int64_t delay_bound);

struct Instance {
  graph::Digraph graph;
  graph::VertexId s = graph::kInvalidVertex;
  graph::VertexId t = graph::kInvalidVertex;
  int k = 1;
  graph::Delay delay_bound = 0;  // D

  /// query_error on this instance's fields; throws CheckError
  /// "instance: <reason>" on violation. O(1).
  void validate_query() const;

  /// The whole model: validate_query() plus non-negative costs and delays
  /// on every edge. Throws CheckError on violation. O(m); phase 1 runs it
  /// once per solve, before any algorithm reads the instance.
  void validate() const;

  [[nodiscard]] std::string summary() const;
};

/// True iff the graph admits k edge-disjoint s→t paths at all (ignoring the
/// delay bound) — a necessary condition for feasibility.
bool has_k_disjoint_paths(const Instance& inst);

/// Delay of the best (min-total-delay) k disjoint paths, or nullopt if
/// fewer than k disjoint paths exist. The instance is feasible iff this is
/// <= delay_bound.
std::optional<graph::Delay> min_possible_delay(const Instance& inst);

/// How a random instance's delay bound is chosen relative to the
/// min-delay/min-cost extremes: tight bounds force cycle cancellation to
/// work, loose bounds are often satisfied by the min-cost flow directly.
struct RandomInstanceOptions {
  int k = 2;
  /// D = min_delay + slack * (cost_min_delay - min_delay), where
  /// cost_min_delay is the least delay among min-cost k-flows (so D never
  /// depends on which of several min-cost flows a solver returns), clamped
  /// to at least min_delay. slack in [0, 1]: 0 = tightest feasible, 1 =
  /// free.
  double delay_slack = 0.3;
  int max_attempts = 64;
  /// Terminal overrides; kInvalidVertex = defaults (0 and n-1). Needed for
  /// generators whose default corners lack degree k (e.g. grids).
  graph::VertexId s = graph::kInvalidVertex;
  graph::VertexId t = graph::kInvalidVertex;
};

/// Draws graphs from `draw` until one admits k disjoint s→t paths, then
/// sets the delay bound per options. s = 0 and t = num_vertices-1 by
/// default (overridable by the draw callback's graph shape). Returns
/// nullopt if max_attempts graphs all lack k disjoint paths.
std::optional<Instance> make_random_instance(
    util::Rng& rng, const RandomInstanceOptions& options,
    const std::function<graph::Digraph(util::Rng&)>& draw);

/// Convenience: random Erdős–Rényi instance.
std::optional<Instance> random_er_instance(util::Rng& rng, int n, double p,
                                           const RandomInstanceOptions& opt,
                                           const gen::WeightRange& w = {});

}  // namespace krsp::core
