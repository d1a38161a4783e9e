// Reference optima for benchmark inputs, independent of the code under test.
//
// Reads one graph and a list of queries on stdin:
//   n m
//   from to cost delay          (m lines, edge id = line order)
//   q
//   s t k                       (q lines)
// and prints, per query, "min_delay min_cost cheapest_delay": the optimal
// total delay and the optimal total cost of k edge-disjoint s->t paths,
// each minimised on its own (a min-cost k-flow with unit capacities), and
// the least delay among the min-cost ones (lexicographic (cost, delay)) —
// or "-1 -1 -1" when fewer than k edge-disjoint paths exist. With --paths
// the line also lists the edge ids of the min-delay flow, which the
// checker's self-test tampers with. Optimal values are unique, so they do
// not depend on how ties are broken; the numbers identify the query, not
// an implementation.
//
// Successive shortest paths with Dijkstra on reduced costs (Johnson
// potentials); queries are spread over a few threads.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

struct Graph {
  int n = 0;
  std::vector<int> from, to;
  std::vector<std::int64_t> cost, delay;
  // CSR of out-arcs and in-arcs, holding edge ids.
  std::vector<int> out_start, out_edges, in_start, in_edges;
};

void build_csr(Graph& g) {
  const int m = static_cast<int>(g.from.size());
  g.out_start.assign(g.n + 1, 0);
  g.in_start.assign(g.n + 1, 0);
  for (int e = 0; e < m; ++e) {
    ++g.out_start[g.from[e] + 1];
    ++g.in_start[g.to[e] + 1];
  }
  for (int v = 0; v < g.n; ++v) {
    g.out_start[v + 1] += g.out_start[v];
    g.in_start[v + 1] += g.in_start[v];
  }
  g.out_edges.resize(m);
  g.in_edges.resize(m);
  std::vector<int> po(g.out_start.begin(), g.out_start.end() - 1);
  std::vector<int> pi(g.in_start.begin(), g.in_start.end() - 1);
  for (int e = 0; e < m; ++e) {
    g.out_edges[po[g.from[e]]++] = e;
    g.in_edges[pi[g.to[e]]++] = e;
  }
}

// Per-thread working arrays for one min-cost k-flow.
struct Flow {
  std::vector<std::int64_t> pot, dist;
  std::vector<int> parent_edge;   // edge used to reach v (-1 = none)
  std::vector<char> parent_back;  // 1 if that edge was traversed backwards
  std::vector<char> used;         // flow on edge

  // Total weight of a min-weight k-flow from s to t, or -1 if infeasible.
  // Leaves the flow in `used`.
  std::int64_t run(const Graph& g, const std::vector<std::int64_t>& w, int s,
                   int t, int k) {
    pot.assign(g.n, 0);
    used.assign(g.from.size(), 0);
    dist.resize(g.n);
    parent_edge.resize(g.n);
    parent_back.resize(g.n);
    using Item = std::pair<std::int64_t, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    std::int64_t total = 0;
    for (int unit = 0; unit < k; ++unit) {
      std::fill(dist.begin(), dist.end(), kInf);
      std::fill(parent_edge.begin(), parent_edge.end(), -1);
      dist[s] = 0;
      heap.emplace(0, s);
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d != dist[u]) continue;
        // Vertices still unsettled have dist >= dist[t]; the potential
        // update below clamps them to dist[t], which keeps reduced costs
        // non-negative, so the search can stop at t.
        if (u == t) break;
        const auto relax = [&](int v, std::int64_t rc, int e, char back) {
          const std::int64_t nd = d + rc;
          if (nd < dist[v]) {
            dist[v] = nd;
            parent_edge[v] = e;
            parent_back[v] = back;
            heap.emplace(nd, v);
          }
        };
        for (int i = g.out_start[u]; i < g.out_start[u + 1]; ++i) {
          const int e = g.out_edges[i];
          if (!used[e]) relax(g.to[e], w[e] + pot[u] - pot[g.to[e]], e, 0);
        }
        for (int i = g.in_start[u]; i < g.in_start[u + 1]; ++i) {
          const int e = g.in_edges[i];
          if (used[e]) relax(g.from[e], -w[e] + pot[u] - pot[g.from[e]], e, 1);
        }
      }
      while (!heap.empty()) heap.pop();
      if (dist[t] >= kInf) return -1;
      for (int v = 0; v < g.n; ++v) pot[v] += std::min(dist[v], dist[t]);
      for (int v = t; v != s;) {
        const int e = parent_edge[v];
        if (parent_back[v]) {
          used[e] = 0;
          total -= w[e];
          v = g.to[e];
        } else {
          used[e] = 1;
          total += w[e];
          v = g.from[e];
        }
      }
    }
    return total;
  }
};

struct Query {
  int s = 0, t = 0, k = 1;
};

}  // namespace

int main(int argc, char** argv) {
  const bool want_paths = argc > 1 && std::strcmp(argv[1], "--paths") == 0;
  std::ios::sync_with_stdio(false);
  Graph g;
  int m = 0;
  if (!(std::cin >> g.n >> m) || g.n <= 0 || m < 0) {
    std::cerr << "oracle: bad header\n";
    return 2;
  }
  g.from.resize(m);
  g.to.resize(m);
  g.cost.resize(m);
  g.delay.resize(m);
  for (int e = 0; e < m; ++e) {
    if (!(std::cin >> g.from[e] >> g.to[e] >> g.cost[e] >> g.delay[e]) ||
        g.from[e] < 0 || g.from[e] >= g.n || g.to[e] < 0 || g.to[e] >= g.n ||
        g.cost[e] < 0 || g.delay[e] < 0) {
      std::cerr << "oracle: bad edge " << e << "\n";
      return 2;
    }
  }
  int q = 0;
  if (!(std::cin >> q) || q < 0) {
    std::cerr << "oracle: bad query count\n";
    return 2;
  }
  std::vector<Query> queries(q);
  for (auto& query : queries) {
    if (!(std::cin >> query.s >> query.t >> query.k) || query.s < 0 ||
        query.s >= g.n || query.t < 0 || query.t >= g.n || query.k < 1) {
      std::cerr << "oracle: bad query\n";
      return 2;
    }
  }
  build_csr(g);
  // Lexicographic (cost, delay) weight: the delay part never carries into
  // the cost part because it stays below the sum of all delays plus one.
  std::int64_t delay_sum = 1;
  for (const std::int64_t d : g.delay) delay_sum += d;
  std::vector<std::int64_t> lex(m);
  for (int e = 0; e < m; ++e) lex[e] = g.cost[e] * delay_sum + g.delay[e];

  std::vector<std::string> out(q);
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      Flow flow;
      for (int i = w; i < q; i += threads) {
        const Query& query = queries[i];
        const std::int64_t l = flow.run(g, lex, query.s, query.t, query.k);
        const std::int64_t c = l < 0 ? -1 : l / delay_sum;
        const std::int64_t cheapest_delay = l < 0 ? -1 : l % delay_sum;
        const std::int64_t d = flow.run(g, g.delay, query.s, query.t, query.k);
        std::string line = std::to_string(d) + " " + std::to_string(c) + " " +
                           std::to_string(cheapest_delay);
        if (want_paths && d >= 0)
          for (int e = 0; e < m; ++e)
            if (flow.used[e]) line += " " + std::to_string(e);
        out[i] = std::move(line);
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& line : out) std::cout << line << '\n';
  return std::cout.good() ? 0 : 1;
}
