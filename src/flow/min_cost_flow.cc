#include "flow/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace krsp::flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
// Potential of a vertex that cannot reach t: the search never enters it.
constexpr std::int64_t kDead = kInf;
// Goal-directed potentials need W <= this bound (see the header).
constexpr std::int64_t kGoalDirectedWeightLimit = kInf / 4;

std::int64_t arc_weight(const graph::Edge& edge, std::int64_t w_cost,
                        std::int64_t w_delay) {
  constexpr const char* kWhat = "arc weight w_cost·cost + w_delay·delay";
  const std::int64_t weight =
      util::checked_add(util::checked_mul(w_cost, edge.cost, kWhat),
                        util::checked_mul(w_delay, edge.delay, kWhat), kWhat);
  KRSP_CHECK_MSG(weight >= 0,
                 "min-cost flow requires non-negative arc weights");
  return weight;
}

}  // namespace

bool McfWorkspace::reprice(const graph::Digraph& g, std::int64_t w_cost,
                           std::int64_t w_delay) {
  const auto edges = g.edges();
  if (first_.size() != static_cast<std::size_t>(g.num_vertices()) + 1 ||
      arcs_.size() != edges.size())
    return false;
  total_weight_ = 0;
  total_weight_overflowed_ = false;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    Arc& arc = arcs_[e];
    if (arc.from != edges[e].from || arc.to != edges[e].to) return false;
    arc.weight = arc_weight(edges[e], w_cost, w_delay);
    add_to_total_weight(arc.weight);
  }
  return true;
}

void McfWorkspace::build(const graph::Digraph& g) {
  ++rebuilds_;
  // first_ stays empty until the layout is complete, so a build cut short
  // leaves no network for the next call to reuse.
  first_.clear();
  pushed_.clear();
  arcs_.clear();
  for (const graph::Edge& edge : g.edges())
    arcs_.push_back(Arc{edge.from, edge.to, 0});
  // Counting sort of the 2m residual arcs by tail; edge e's forward arc
  // precedes its reverse arc, so each vertex keeps edge-id order.
  const int n = g.num_vertices();
  const int m = static_cast<int>(arcs_.size());
  std::vector<int> first(n + 1, 0);
  for (const Arc& a : arcs_) {
    ++first[a.from + 1];
    ++first[a.to + 1];
  }
  for (int v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<int> next(first.begin(), first.end() - 1);
  head_.resize(2 * static_cast<std::size_t>(m));
  rev_.resize(head_.size());
  arc_.resize(head_.size());
  cap_.resize(head_.size());
  for (int e = 0; e < m; ++e) {
    const int fwd = next[arcs_[e].from]++;
    const int bwd = next[arcs_[e].to]++;
    head_[fwd] = arcs_[e].to;
    rev_[fwd] = bwd;
    arc_[fwd] = e;
    cap_[fwd] = 1;
    head_[bwd] = arcs_[e].from;
    rev_[bwd] = fwd;
    arc_[bwd] = ~e;
    cap_[bwd] = 0;
  }
  first_ = std::move(first);
}

std::optional<std::vector<graph::EdgeId>> McfWorkspace::min_weight_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, const SinkDistances* sink) {
  const int n = g.num_vertices();
  KRSP_CHECK(g.is_vertex(s) && g.is_vertex(t) && s != t && k >= 1);
  KRSP_CHECK(sink == nullptr || (static_cast<int>(sink->cost.size()) == n &&
                                 static_cast<int>(sink->delay.size()) == n));
  settled_ = 0;
  if (reprice(g, w_cost, w_delay)) {
    ++reuse_hits_;
  } else {
    build(g);
    reprice(g, w_cost, w_delay);  // g's own network: the topology matches
  }
  // Undo the previous call's flow, last push first.
  for (auto i = pushed_.rbegin(); i != pushed_.rend(); ++i) {
    ++cap_[*i];
    --cap_[rev_[*i]];
  }
  pushed_.clear();
  if (total_weight_overflowed_)
    util::detail::overflow_failed("min-cost flow weight");
  KRSP_CHECK_MSG(total_weight_ <= kInf / 2,
                 "min-cost flow weight Σ arc weights = "
                     << total_weight_ << " overflows the int64 search range");

  auto& potential = potential_;
  auto& dist = dist_;
  potential.resize(n);
  if (sink != nullptr && total_weight_ <= kGoalDirectedWeightLimit) {
    KRSP_CHECK_MSG(sink->cost[t] == 0 && sink->delay[t] == 0,
                   "sink distances of t must be 0");
    // h(v) = w_cost·dist_cost(v) + w_delay·dist_delay(v): each term is a
    // consistent lower bound under its own weight, so their sum is one under
    // the combined weight. A vertex that cannot reach t, or whose h
    // overflows or exceeds W (neither happens on a vertex that can reach
    // t), is dead.
    for (int v = 0; v < n; ++v) {
      std::int64_t by_cost = 0;
      std::int64_t by_delay = 0;
      std::int64_t h = 0;
      const bool wrapped =
          __builtin_mul_overflow(w_cost, sink->cost[v], &by_cost) ||
          __builtin_mul_overflow(w_delay, sink->delay[v], &by_delay) ||
          __builtin_add_overflow(by_cost, by_delay, &h);
      KRSP_CHECK_MSG(wrapped || h >= 0, "sink distances must be non-negative");
      const bool dead = wrapped || sink->cost[v] == paths::kUnreachable ||
                        h > total_weight_;
      potential[v] = dead ? kDead : -h;
    }
  } else {
    std::fill(potential.begin(), potential.end(), 0);
  }
  dist.assign(n, kInf);
  parent_arc_.resize(n);
  const auto tail = [&](int arc) { return head_[rev_[arc]]; };

  for (int unit = 0; unit < k; ++unit) {
    if (potential[s] == kDead) return std::nullopt;  // s cannot reach t
    // Dijkstra on reduced costs (A* toward t when goal-directed), stopped
    // once t is settled.
    dist[s] = 0;
    touched_.assign(1, s);
    heap_.clear();
    heap_.push(0, s);
    bool reached = false;
    while (!heap_.empty()) {
      const auto [d, v] = heap_.pop();
      if (d != dist[v]) continue;
      ++settled_;
      if (v == t) {
        reached = true;
        break;
      }
      for (int i = first_[v]; i < first_[v + 1]; ++i) {
        if (cap_[i] == 0) continue;
        const graph::VertexId w = head_[i];
        if (potential[w] == kDead) continue;
        const std::int64_t reduced =
            residual_weight(i) + potential[v] - potential[w];
        KRSP_DCHECK(reduced >= 0);
        if (d + reduced < dist[w]) {
          if (dist[w] == kInf) touched_.push_back(w);
          dist[w] = d + reduced;
          parent_arc_[w] = i;
          heap_.push(dist[w], w);
        }
      }
    }

    if (!reached) return std::nullopt;  // fewer than k disjoint paths

    // Settled vertices fall by dist(t) - dist(v); tentative ones (all at
    // >= dist(t)) and unreached ones stay. An arc out of a settled vertex
    // was relaxed, and an arc out of an unsettled vertex loses nothing, so
    // no reduced cost turns negative; the shortest path's arcs drop to
    // zero. Every distance returns to kInf for the next search.
    const std::int64_t dt = dist[t];
    for (const graph::VertexId v : touched_) {
      if (dist[v] < dt) potential[v] -= dt - dist[v];
      dist[v] = kInf;
    }

    // One unit along the shortest path, each arc noted before it changes,
    // so the next call can undo whatever this one pushed.
    for (graph::VertexId v = t; v != s; v = tail(parent_arc_[v])) {
      const int i = parent_arc_[v];
      pushed_.push_back(i);
      --cap_[i];
      ++cap_[rev_[i]];
    }
  }

  // An edge carries flow when its forward arc, pushed at some point, is
  // still saturated.
  std::vector<graph::EdgeId> edges;
  for (const int i : pushed_)
    if (arc_[i] >= 0 && cap_[i] == 0) edges.push_back(arc_[i]);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace krsp::flow
