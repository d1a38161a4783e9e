// Directed multigraph with per-edge integral cost and delay.
//
// This is the substrate for every algorithm in the library. It is a
// *multigraph* on purpose: the residual graphs of Definition 6 in the paper
// contain pairs of parallel same-direction edges with different weights, and
// the auxiliary graphs of Algorithm 2 duplicate vertices into cost layers.
// Costs and delays are signed 64-bit so residual graphs (negated weights)
// reuse the same type.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace krsp::graph {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Cost = std::int64_t;
using Delay = std::int64_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr EdgeId kInvalidEdge = -1;

struct Edge {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  Cost cost = 0;
  Delay delay = 0;
};

/// Copies are cheap and independent: a copy shares the graph's storage
/// (one reference-counted block holding the edges and both adjacency
/// lists) and never allocates; a mutator first clones the block when
/// another graph shares it, so mutating one copy never changes another.
/// Const access to any copies from any threads is safe; a mutator, as
/// usual, needs exclusive access to the graph it mutates.
/// Default-constructed and moved-from graphs are valid and empty.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int num_vertices) { resize(num_vertices); }
  Digraph(const Digraph& other) noexcept : data_(other.data_) {
    if (data_ != nullptr) data_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Digraph(Digraph&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)) {}
  Digraph& operator=(Digraph other) noexcept {
    std::swap(data_, other.data_);
    return *this;
  }
  ~Digraph() { release(); }

  /// Grow to at least `num_vertices` vertices.
  void resize(int num_vertices) {
    KRSP_CHECK(num_vertices >= 0);
    if (num_vertices > this->num_vertices()) {
      Storage& s = own();
      s.out.resize(num_vertices);
      s.in.resize(num_vertices);
    }
  }

  VertexId add_vertex() {
    Storage& s = own();
    s.out.emplace_back();
    s.in.emplace_back();
    return static_cast<VertexId>(s.out.size() - 1);
  }

  EdgeId add_edge(VertexId from, VertexId to, Cost cost, Delay delay) {
    KRSP_CHECK_MSG(is_vertex(from) && is_vertex(to),
                   "add_edge(" << from << "," << to << ") on graph with "
                               << num_vertices() << " vertices");
    Storage& s = own();
    const auto id = static_cast<EdgeId>(s.edges.size());
    s.edges.push_back(Edge{from, to, cost, delay});
    s.out[from].push_back(id);
    s.in[to].push_back(id);
    return id;
  }

  [[nodiscard]] int num_vertices() const {
    return data_ == nullptr ? 0 : static_cast<int>(data_->out.size());
  }
  [[nodiscard]] int num_edges() const {
    return data_ == nullptr ? 0 : static_cast<int>(data_->edges.size());
  }

  [[nodiscard]] bool is_vertex(VertexId v) const {
    return v >= 0 && v < num_vertices();
  }
  [[nodiscard]] bool is_edge(EdgeId e) const {
    return e >= 0 && e < num_edges();
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    KRSP_DCHECK(is_edge(e));
    return data_->edges[e];
  }

  /// Removes every edge but keeps the vertex set and — crucially — the
  /// allocated adjacency storage, so a graph rebuilt in place with the same
  /// shape (residual graphs across cancellation iterations) reuses its
  /// buffers instead of reallocating.
  void clear_edges() {
    if (data_ == nullptr) return;
    Storage& s = own();
    s.edges.clear();
    for (auto& v : s.out) v.clear();
    for (auto& v : s.in) v.clear();
  }

  /// Updates one edge's delay in place (live-network degradation events);
  /// topology and edge ids stay stable so provisioned paths remain
  /// addressable.
  void set_edge_delay(EdgeId e, Delay delay) {
    KRSP_CHECK(is_edge(e));
    own().edges[e].delay = delay;
  }

  [[nodiscard]] std::span<const EdgeId> out_edges(VertexId v) const {
    KRSP_DCHECK(is_vertex(v));
    return data_->out[v];
  }
  [[nodiscard]] std::span<const EdgeId> in_edges(VertexId v) const {
    KRSP_DCHECK(is_vertex(v));
    return data_->in[v];
  }

  [[nodiscard]] std::span<const Edge> edges() const {
    if (data_ == nullptr) return {};
    return data_->edges;
  }

  [[nodiscard]] int out_degree(VertexId v) const {
    return static_cast<int>(out_edges(v).size());
  }
  [[nodiscard]] int in_degree(VertexId v) const {
    return static_cast<int>(in_edges(v).size());
  }

  /// Sum of all edge costs (Σc(e) in the paper; bounds the budget B).
  /// Both sums throw util::CheckError instead of wrapping past int64.
  [[nodiscard]] Cost total_cost() const;
  /// Sum of all edge delays (Σd(e)).
  [[nodiscard]] Delay total_delay() const;
  /// Max |cost| over edges.
  [[nodiscard]] Cost max_abs_cost() const;
  /// Max |delay| over edges.
  [[nodiscard]] Delay max_abs_delay() const;

  /// Graph with every edge reversed (weights unchanged).
  [[nodiscard]] Digraph reversed() const;

  /// Human-readable one-line summary, e.g. "Digraph(n=8, m=21)".
  [[nodiscard]] std::string summary() const;

 private:
  struct Storage {
    Storage() = default;
    Storage(const Storage& other)
        : edges(other.edges), out(other.out), in(other.in) {}
    std::atomic<int> refs{1};  // graphs sharing this block
    std::vector<Edge> edges;
    std::vector<std::vector<EdgeId>> out;
    std::vector<std::vector<EdgeId>> in;
  };

  /// The storage, this graph's alone: allocated when there is none, cloned
  /// when another graph shares it. The acquire load orders a sharer's
  /// last reads before this graph's writes once that sharer has let go.
  Storage& own() {
    if (data_ == nullptr || data_->refs.load(std::memory_order_acquire) != 1)
      clone();
    return *data_;
  }
  void clone();
  void release() noexcept {
    if (data_ != nullptr &&
        data_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete data_;
  }

  Storage* data_ = nullptr;  // null: no vertices, no edges
};

/// Total cost of an edge sequence/set.
Cost path_cost(const Digraph& g, std::span<const EdgeId> edges);
/// Total delay of an edge sequence/set.
Delay path_delay(const Digraph& g, std::span<const EdgeId> edges);

/// True iff `edges` forms a contiguous walk from `from` to `to`.
bool is_walk(const Digraph& g, std::span<const EdgeId> edges, VertexId from,
             VertexId to);

/// True iff `edges` is a walk from `from` to `to` that repeats no edge and
/// no intermediate vertex (a simple path).
bool is_simple_path(const Digraph& g, std::span<const EdgeId> edges,
                    VertexId from, VertexId to);

}  // namespace krsp::graph
