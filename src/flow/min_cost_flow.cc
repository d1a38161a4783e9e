#include "flow/min_cost_flow.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace krsp::flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// Structural fingerprint of a digraph (FNV-1a over sizes + endpoints).
/// Weights are excluded on purpose: min_weight_unit_flow re-prices every
/// arc per call, so only the topology must match for reuse to be sound.
std::uint64_t topology_fingerprint(const graph::Digraph& g) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(g.num_vertices()));
  mix(static_cast<std::uint64_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    mix(static_cast<std::uint64_t>(e.from));
    mix(static_cast<std::uint64_t>(e.to));
  }
  return h;
}

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
  return num_arcs() - 1;
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
  cost_.resize(head_.size());
  slot_.resize(m);
  for (int a = 0; a < m; ++a) {
    const Arc& arc = arcs_[a];
    const int fwd = next[arc.from]++;
    const int bwd = next[arc.to]++;
    head_[fwd] = arc.to;
    rev_[fwd] = bwd;
    cap_[fwd] = arc.cap;
    cost_[fwd] = arc.cost;
    head_[bwd] = arc.from;
    rev_[bwd] = fwd;
    cap_[bwd] = 0;
    cost_[bwd] = -arc.cost;
    slot_[a] = fwd;
  }
  built_ = true;
}

void MinCostFlow::reset_flow() {
  build();
  for (int a = 0; a < num_arcs(); ++a) {
    const int i = slot_[a];
    cap_[i] = arcs_[a].cap;
    cap_[rev_[i]] = 0;
  }
}

void MinCostFlow::set_arc_cost(int arc, std::int64_t cost) {
  KRSP_CHECK(arc >= 0 && arc < num_arcs());
  KRSP_CHECK_MSG(cost >= 0, "MinCostFlow requires non-negative arc costs");
  build();
  const int i = slot_[arc];
  KRSP_CHECK_MSG(cap_[i] == arcs_[arc].cap,
                 "set_arc_cost on an arc carrying flow");
  arcs_[arc].cost = cost;
  cost_[i] = cost;
  cost_[rev_[i]] = -cost;
}

std::optional<std::int64_t> MinCostFlow::solve(graph::VertexId s,
                                               graph::VertexId t,
                                               std::int64_t amount) {
  KRSP_CHECK(s >= 0 && s < num_vertices() && t >= 0 && t < num_vertices());
  KRSP_CHECK(s != t && amount >= 0);
  build();
  // Range argument for W = Σ cap·cost: potentials never fall and never pass
  // π(t), the current s→t distance, so they lie in [0, W]; a settled
  // vertex's distance plus an arc's reduced cost is a real path length
  // minus a potential, in [0, W]; reduced costs lie in [-2W, 2W]; the
  // flow's cost stays in [0, W]. W <= INT64_MAX / 2 keeps all of it exact.
  std::int64_t total_weight = 0;
  for (const Arc& a : arcs_)
    total_weight = util::checked_add(
        total_weight, util::checked_mul(a.cap, a.cost, "MinCostFlow weight"),
        "MinCostFlow weight");
  KRSP_CHECK_MSG(total_weight <= kInf / 2,
                 "MinCostFlow weight Σ capacity·cost = "
                     << total_weight << " overflows the int64 search range");

  const int n = num_vertices();
  potential_.assign(n, 0);
  dist_.resize(n);
  parent_arc_.resize(n);
  auto& potential = potential_;
  auto& dist = dist_;
  const auto tail = [&](int arc) { return head_[rev_[arc]]; };
  std::int64_t remaining = amount;
  std::int64_t total_cost = 0;

  while (remaining > 0) {
    // Dijkstra on reduced costs, stopped once t is settled.
    std::fill(dist.begin(), dist.end(), kInf);
    dist[s] = 0;
    heap_.assign(1, {0, s});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (d != dist[v]) continue;
      if (v == t) break;
      for (int i = first_[v]; i < first_[v + 1]; ++i) {
        if (cap_[i] <= 0) continue;
        const graph::VertexId w = head_[i];
        const std::int64_t reduced = cost_[i] + potential[v] - potential[w];
        KRSP_DCHECK(reduced >= 0);
        if (d + reduced < dist[w]) {
          dist[w] = d + reduced;
          parent_arc_[w] = i;
          heap_.emplace_back(dist[w], w);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
      }
    }
    if (dist[t] == kInf) return std::nullopt;  // maxflow < amount

    // Capped update: settled vertices move by their distance, all others
    // (tentative or unreached, all at >= dist(t)) by dist(t). An arc out
    // of a settled vertex was relaxed, and an arc out of an unsettled
    // vertex gains dist(t) - min(dist(w), dist(t)) >= 0, so no reduced
    // cost turns negative; the shortest path's arcs drop to zero.
    const std::int64_t dt = dist[t];
    for (int v = 0; v < n; ++v) potential[v] += std::min(dist[v], dt);

    // Bottleneck along the shortest path.
    std::int64_t push = remaining;
    for (graph::VertexId v = t; v != s; v = tail(parent_arc_[v]))
      push = std::min(push, cap_[parent_arc_[v]]);
    for (graph::VertexId v = t; v != s; v = tail(parent_arc_[v])) {
      const int i = parent_arc_[v];
      cap_[i] -= push;
      cap_[rev_[i]] += push;
      total_cost += cost_[i] * push;
    }
    remaining -= push;
  }
  return total_cost;
}

std::int64_t MinCostFlow::flow_on(int arc) const {
  KRSP_CHECK(arc >= 0 && arc < num_arcs());
  if (!built_) return 0;  // no solve yet: no flow
  return arcs_[arc].cap - cap_[slot_[arc]];
}

std::optional<UnitFlowResult> min_weight_unit_flow(const graph::Digraph& g,
                                                   graph::VertexId s,
                                                   graph::VertexId t, int k,
                                                   std::int64_t w_cost,
                                                   std::int64_t w_delay,
                                                   McfWorkspace* ws) {
  KRSP_CHECK(k >= 1);
  const auto arc_weight = [&](const graph::Edge& e) {
    constexpr const char* kWhat = "arc weight w_cost·cost + w_delay·delay";
    return util::checked_add(util::checked_mul(w_cost, e.cost, kWhat),
                             util::checked_mul(w_delay, e.delay, kWhat), kWhat);
  };

  MinCostFlow* mcf = nullptr;
  std::optional<MinCostFlow> fresh;
  const std::uint64_t fp = ws != nullptr ? topology_fingerprint(g) : 0;
  if (ws != nullptr && ws->mcf_ && ws->fingerprint_ == fp &&
      ws->mcf_->num_vertices() == g.num_vertices() &&
      ws->mcf_->num_arcs() == g.num_edges()) {
    // Same topology as the cached network: drain flow and re-price.
    mcf = &*ws->mcf_;
    mcf->reset_flow();
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
      mcf->set_arc_cost(e, arc_weight(g.edge(e)));
    ++ws->reuse_hits_;
  } else {
    // The old network goes first, so only one is ever in memory, and the
    // new one is cached only once every arc is priced, so a throw leaves
    // no half-built entry behind.
    if (ws != nullptr) ws->mcf_.reset();
    fresh.emplace(g.num_vertices());
    for (const auto& edge : g.edges())
      fresh->add_arc(edge.from, edge.to, 1, arc_weight(edge));
    if (ws == nullptr) {
      mcf = &*fresh;
    } else {
      ws->mcf_ = std::move(fresh);
      ws->fingerprint_ = fp;
      ++ws->rebuilds_;
      mcf = &*ws->mcf_;
    }
  }

  const auto weight = mcf->solve(s, t, k);
  if (!weight) return std::nullopt;
  UnitFlowResult result;
  result.weight = *weight;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    if (mcf->flow_on(e) > 0) result.edges.push_back(e);
  return result;
}

}  // namespace krsp::flow
