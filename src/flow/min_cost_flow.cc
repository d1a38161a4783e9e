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

}  // namespace

MinCostFlow::MinCostFlow(int num_vertices) : num_vertices_(num_vertices) {
  KRSP_CHECK(num_vertices >= 0);
}

int MinCostFlow::add_arc(graph::VertexId from, graph::VertexId to,
                         std::int64_t capacity, std::int64_t cost) {
  KRSP_CHECK(from >= 0 && from < num_vertices());
  KRSP_CHECK(to >= 0 && to < num_vertices());
  KRSP_CHECK(capacity >= 0);
  KRSP_CHECK_MSG(cost >= 0, "MinCostFlow requires non-negative arc costs");
  KRSP_CHECK_MSG(!built_, "MinCostFlow::add_arc after the network was built");
  arcs_.push_back(Arc{from, to, capacity, cost});
  add_to_total_weight(capacity, cost);
  return num_arcs() - 1;
}

void MinCostFlow::clear(int num_vertices) {
  KRSP_CHECK(num_vertices >= 0);
  num_vertices_ = num_vertices;
  built_ = false;
  arcs_.clear();
  total_weight_ = 0;
  total_weight_overflowed_ = false;
  pushed_.clear();
}

void MinCostFlow::drain() {
  for (const auto& [i, amount] : pushed_) {
    cap_[i] += amount;
    cap_[rev_[i]] -= amount;
  }
  pushed_.clear();
}

void MinCostFlow::build() {
  if (built_) return;
  const int m = num_arcs();
  // Counting sort of the 2m residual arcs by tail; arc a's forward copy
  // precedes its reverse copy, so each vertex keeps insertion order.
  first_.assign(num_vertices_ + 1, 0);
  for (const Arc& a : arcs_) {
    ++first_[a.from + 1];
    ++first_[a.to + 1];
  }
  for (int v = 0; v < num_vertices_; ++v) first_[v + 1] += first_[v];
  std::vector<int> next(first_.begin(), first_.end() - 1);
  head_.resize(2 * static_cast<std::size_t>(m));
  rev_.resize(head_.size());
  cap_.resize(head_.size());
  arc_.resize(head_.size());
  slot_.resize(m);
  for (int a = 0; a < m; ++a) {
    const Arc& arc = arcs_[a];
    const int fwd = next[arc.from]++;
    const int bwd = next[arc.to]++;
    head_[fwd] = arc.to;
    rev_[fwd] = bwd;
    cap_[fwd] = arc.cap;
    arc_[fwd] = a;
    head_[bwd] = arc.from;
    rev_[bwd] = fwd;
    cap_[bwd] = 0;
    arc_[bwd] = ~a;
    slot_[a] = fwd;
  }
  built_ = true;
}

std::optional<std::int64_t> MinCostFlow::solve(
    graph::VertexId s, graph::VertexId t, std::int64_t amount,
    std::span<const std::int64_t> sink_distance) {
  KRSP_CHECK(s >= 0 && s < num_vertices() && t >= 0 && t < num_vertices());
  KRSP_CHECK(s != t && amount >= 0);
  KRSP_CHECK(sink_distance.empty() ||
             static_cast<int>(sink_distance.size()) == num_vertices());
  build();
  drain();
  if (total_weight_overflowed_)
    util::detail::overflow_failed("MinCostFlow weight");
  KRSP_CHECK_MSG(total_weight_ <= kInf / 2,
                 "MinCostFlow weight Σ capacity·cost = "
                     << total_weight_ << " overflows the int64 search range");

  const int n = num_vertices();
  auto& potential = potential_;
  auto& dist = dist_;
  if (!sink_distance.empty() && total_weight_ <= kGoalDirectedWeightLimit) {
    KRSP_CHECK_MSG(sink_distance[t] == 0, "sink distance of t must be 0");
    potential.resize(n);
    for (int v = 0; v < n; ++v) {
      const std::int64_t h = sink_distance[v];
      KRSP_CHECK_MSG(h >= 0, "sink distances must be non-negative");
      potential[v] = h <= total_weight_ ? -h : kDead;
    }
  } else {
    potential.assign(n, 0);
  }
  dist.assign(n, kInf);
  parent_arc_.resize(n);
  path_vertices_.clear();
  settled_ = 0;
  const auto tail = [&](int arc) { return head_[rev_[arc]]; };
  std::int64_t remaining = amount;
  std::int64_t total_cost = 0;

  while (remaining > 0) {
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
        if (cap_[i] <= 0) continue;
        const graph::VertexId w = head_[i];
        if (potential[w] == kDead) continue;
        const std::int64_t reduced =
            residual_cost(i) + potential[v] - potential[w];
        KRSP_DCHECK(reduced >= 0);
        if (d + reduced < dist[w]) {
          if (dist[w] == kInf) touched_.push_back(w);
          dist[w] = d + reduced;
          parent_arc_[w] = i;
          heap_.push(dist[w], w);
        }
      }
    }

    if (!reached) return std::nullopt;  // maxflow < amount

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

    // Bottleneck along the shortest path.
    std::int64_t push = remaining;
    for (graph::VertexId v = t; v != s; v = tail(parent_arc_[v]))
      push = std::min(push, cap_[parent_arc_[v]]);
    for (graph::VertexId v = t; v != s; v = tail(parent_arc_[v])) {
      const int i = parent_arc_[v];
      cap_[i] -= push;
      cap_[rev_[i]] += push;
      total_cost += residual_cost(i) * push;
      pushed_.emplace_back(i, push);
      path_vertices_.push_back(v);
    }
    path_vertices_.push_back(s);
    remaining -= push;
  }
  return total_cost;
}

std::int64_t MinCostFlow::flow_on(int arc) const {
  KRSP_CHECK(arc >= 0 && arc < num_arcs());
  if (!built_) return 0;  // no solve yet: no flow
  return arcs_[arc].cap - cap_[slot_[arc]];
}

SinkDistances::SinkDistances(const graph::Digraph& g, graph::VertexId sink)
    : sink_(sink),
      cost_(paths::dijkstra_to(g, sink, paths::EdgeWeight::cost()).dist),
      delay_(paths::dijkstra_to(g, sink, paths::EdgeWeight::delay()).dist) {}

std::optional<UnitFlowResult> min_weight_unit_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws,
    SinkDistances* sink) {
  KRSP_CHECK(k >= 1);
  KRSP_CHECK(sink == nullptr || (sink->sink() == t &&
                                 static_cast<int>(sink->cost().size()) ==
                                     g.num_vertices()));
  const auto weight_of = [&](const graph::Edge& edge) {
    constexpr const char* kWhat = "arc weight w_cost·cost + w_delay·delay";
    return util::checked_add(util::checked_mul(w_cost, edge.cost, kWhat),
                             util::checked_mul(w_delay, edge.delay, kWhat),
                             kWhat);
  };
  McfWorkspace local;
  if (ws == nullptr) ws = &local;
  auto& mcf = ws->mcf_;
  if (mcf && mcf->reprice(g, weight_of)) {
    ++ws->reuse_hits_;
  } else {
    // Built for g, in the old network's storage when there is one.
    if (mcf) {
      mcf->clear(g.num_vertices());
    } else {
      mcf.emplace(g.num_vertices());
    }
    ++ws->rebuilds_;
    for (const auto& edge : g.edges())
      mcf->add_arc(edge.from, edge.to, 1, weight_of(edge));
  }

  std::span<const std::int64_t> sink_distance;
  if (sink != nullptr) {
    // h(v) = w_cost·cost_to_t(v) + w_delay·delay_to_t(v): each term is a
    // consistent lower bound under its own weight, so their sum is one
    // under the combined weight, and it is at most W (a simple path's
    // weight). So it overflows only when W does, and then solve() refuses
    // the network before it reads h.
    auto& h = sink->combined_;
    h.resize(g.num_vertices());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      std::int64_t by_cost = 0;
      std::int64_t by_delay = 0;
      const bool wrapped =
          __builtin_mul_overflow(w_cost, sink->cost_[v], &by_cost) ||
          __builtin_mul_overflow(w_delay, sink->delay_[v], &by_delay) ||
          __builtin_add_overflow(by_cost, by_delay, &h[v]);
      if (wrapped || sink->cost_[v] == paths::kUnreachable)
        h[v] = paths::kUnreachable;
    }
    sink_distance = h;
  }
  const auto weight = mcf->solve(s, t, k, sink_distance);
  if (sink != nullptr) sink->settled_ += mcf->vertices_settled();
  if (!weight) return std::nullopt;

  // Every arc carrying flow leaves a vertex of an augmenting path.
  UnitFlowResult result;
  result.weight = *weight;
  std::vector<graph::VertexId> tails(mcf->path_vertices().begin(),
                                     mcf->path_vertices().end());
  std::sort(tails.begin(), tails.end());
  tails.erase(std::unique(tails.begin(), tails.end()), tails.end());
  for (const graph::VertexId v : tails)
    for (const graph::EdgeId e : g.out_edges(v))
      if (mcf->flow_on(e) > 0) result.edges.push_back(e);
  std::sort(result.edges.begin(), result.edges.end());
  return result;
}

}  // namespace krsp::flow
