// Dijkstra shortest paths over a pluggable edge weight: from a source over
// out_edges, or toward a target over in_edges, stopped past a given vertex.
//
// Weights must be non-negative; this is KRSP_CHECKed lazily (on the first
// negative weight encountered) so combined-weight callers (q·cost + p·delay)
// fail loudly instead of silently mis-routing.
//
// RadixHeap is the queue of these searches and of flow::McfWorkspace's: it
// can pop in the order of a binary heap over (key, vertex) pairs, with far
// fewer unpredictable branches.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace krsp::paths {

/// Linear edge weight w(e) = cost_mult * cost(e) + delay_mult * delay(e).
/// The common instantiations:
///   EdgeWeight::cost()      — pure cost
///   EdgeWeight::delay()     — pure delay
///   EdgeWeight::combined(q, p) — Lagrangian weight q·c + p·d
struct EdgeWeight {
  std::int64_t cost_mult = 1;
  std::int64_t delay_mult = 0;

  static EdgeWeight cost() { return {1, 0}; }
  static EdgeWeight delay() { return {0, 1}; }
  static EdgeWeight combined(std::int64_t q, std::int64_t p) { return {q, p}; }

  [[nodiscard]] std::int64_t operator()(const graph::Edge& e) const {
    return cost_mult * e.cost + delay_mult * e.delay;
  }
};

inline constexpr std::int64_t kUnreachable =
    std::numeric_limits<std::int64_t>::max();

struct ShortestPathTree {
  std::vector<std::int64_t> dist;        // kUnreachable if not reached
  std::vector<graph::EdgeId> parent;     // kInvalidEdge at source/unreached

  [[nodiscard]] bool reached(graph::VertexId v) const {
    return dist[v] != kUnreachable;
  }

  /// Edge sequence of the tree path source→v (empty if v is the source).
  [[nodiscard]] std::vector<graph::EdgeId> path_to(const graph::Digraph& g,
                                                   graph::VertexId v) const;
};

/// Dijkstra from `source` under weight `w` (all edges must have w(e) >= 0).
ShortestPathTree dijkstra(const graph::Digraph& g, graph::VertexId source,
                          const EdgeWeight& w);

/// Dijkstra toward `target` over in_edges (all edges must have w(e) >= 0),
/// stopped once every vertex no farther from `target` than `stop` is
/// settled. Entry v is min(dist(v), B), where dist(v) is the least weight
/// of a v→target path and B, beyond dist(stop), is the least key left in
/// the queue: exact up to dist(stop), one bound B past it. When the queue
/// runs out first, every vertex it never reached is kUnreachable, exactly
/// the vertices that cannot reach `target`; otherwise no entry is. Like
/// dist, the entries are 0 at `target` and satisfy
/// entry(u) <= w(u→v) + entry(v) on every arc, so they are a consistent A*
/// heuristic toward `target`.
std::vector<std::int64_t> dijkstra_to(const graph::Digraph& g,
                                      graph::VertexId target,
                                      const EdgeWeight& w,
                                      graph::VertexId stop);

/// Min-priority queue of (key, vertex) entries for a search whose keys are
/// >= 0 and never fall below the last popped key, as in Dijkstra with
/// non-negative (reduced) weights: a radix heap (Ahuja, Mehlhorn, Orlin and
/// Tarjan 1990). With `order_ties`, entries pop in ascending (key, vertex)
/// order, exactly as from a binary heap over the pairs, so the choice of
/// queue changes no search's tie-breaking. Without it, entries with equal
/// keys pop in any order, which is cheaper where keys tie often and only
/// the distances matter. Memory follows the entries queued at once.
class RadixHeap {
 public:
  using Entry = std::pair<std::int64_t, graph::VertexId>;

  explicit RadixHeap(bool order_ties) : order_ties_(order_ties) {
    head_.fill(kNone);
    least_.fill(kNoKey);
  }

  /// Empties the queue and resets the last popped key to 0.
  void clear() {
    head_.fill(kNone);
    least_.fill(kNoKey);
    front_.clear();
    nodes_.clear();
    free_ = kNone;
    last_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Throws util::CheckError on a key below the last popped one, such as
  /// a distance sum that wrapped: it has no bucket.
  void push(std::int64_t key, graph::VertexId v) {
    KRSP_CHECK_MSG(key >= last_, "RadixHeap key " << key
                                                  << " below the last popped "
                                                  << last_);
    place(key, v, kNone);
    ++size_;
  }

  /// Removes and returns the least (key, vertex) entry. Must not be empty.
  Entry pop() {
    KRSP_DCHECK(size_ > 0);
    if (front_.empty()) {
      // Refill from the lowest non-empty bucket: its least key becomes
      // last_, and every entry moves to a strictly lower bucket.
      std::size_t b = 1;
      while (head_[b] == kNone) ++b;
      int i = head_[b];
      head_[b] = kNone;
      last_ = least_[b];
      least_[b] = kNoKey;
      while (i != kNone) {
        const int next = nodes_[i].next;
        place(nodes_[i].key, nodes_[i].vertex, i);
        i = next;
      }
    }
    if (order_ties_) std::pop_heap(front_.begin(), front_.end(), kByVertex);
    const graph::VertexId v = front_.back();
    front_.pop_back();
    --size_;
    return {last_, v};
  }

 private:
  struct Node {
    std::int64_t key;
    graph::VertexId vertex;
    int next;
  };
  static constexpr int kNone = -1;
  static constexpr std::int64_t kNoKey =
      std::numeric_limits<std::int64_t>::max();
  // Orders the front, whose entries share one key, as a min-heap on vertex
  // (with order_ties).
  static constexpr auto kByVertex = [](graph::VertexId a, graph::VertexId b) {
    return a > b;
  };

  // Files an entry by its key: equal to last_ into the front; otherwise
  // into the list of bucket b, the position of the highest bit where the
  // key differs from last_, plus one. `node` is the entry's node when it
  // already has one.
  void place(std::int64_t key, graph::VertexId v, int node) {
    const auto diff = static_cast<std::uint64_t>(key ^ last_);
    if (diff == 0) {
      front_.push_back(v);
      if (order_ties_) std::push_heap(front_.begin(), front_.end(), kByVertex);
      if (node != kNone) {
        nodes_[node].next = free_;
        free_ = node;
      }
      return;
    }
    if (node == kNone) {
      if (free_ != kNone) {
        node = free_;
        free_ = nodes_[node].next;
      } else {
        node = static_cast<int>(nodes_.size());
        nodes_.emplace_back();
      }
      nodes_[node].key = key;
      nodes_[node].vertex = v;
    }
    const std::size_t b = 64 - __builtin_clzll(diff);
    nodes_[node].next = head_[b];
    head_[b] = node;
    least_[b] = std::min(least_[b], key);
  }

  bool order_ties_;
  // The entries whose key equals last_, by vertex.
  std::vector<graph::VertexId> front_;
  // head_[b] starts bucket b's list through nodes_ and least_[b] is its
  // least key (entry 0 of both is unused); free nodes are listed from
  // free_.
  std::array<int, 64> head_;
  std::array<std::int64_t, 64> least_;
  std::vector<Node> nodes_;
  int free_ = kNone;
  std::int64_t last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace krsp::paths
