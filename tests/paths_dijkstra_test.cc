#include "paths/dijkstra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "paths/bellman_ford.h"
#include "util/rng.h"

namespace krsp::paths {
namespace {

using graph::Digraph;
using graph::EdgeId;
using graph::VertexId;

TEST(EdgeWeight, Factories) {
  const graph::Edge e{0, 1, 5, 7};
  EXPECT_EQ(EdgeWeight::cost()(e), 5);
  EXPECT_EQ(EdgeWeight::delay()(e), 7);
  EXPECT_EQ(EdgeWeight::combined(2, 3)(e), 31);
}

TEST(Dijkstra, LinearChain) {
  Digraph g(4);
  g.add_edge(0, 1, 2, 0);
  g.add_edge(1, 2, 3, 0);
  g.add_edge(2, 3, 4, 0);
  const auto tree = dijkstra(g, 0, EdgeWeight::cost());
  EXPECT_EQ(tree.dist[3], 9);
  EXPECT_EQ(tree.path_to(g, 3).size(), 3u);
}

TEST(Dijkstra, PicksCheaperOfTwoRoutes) {
  Digraph g(3);
  g.add_edge(0, 2, 10, 1);
  g.add_edge(0, 1, 3, 5);
  g.add_edge(1, 2, 3, 5);
  EXPECT_EQ(dijkstra(g, 0, EdgeWeight::cost()).dist[2], 6);
  EXPECT_EQ(dijkstra(g, 0, EdgeWeight::delay()).dist[2], 1);
}

TEST(Dijkstra, UnreachableMarked) {
  Digraph g(3);
  g.add_edge(0, 1, 1, 1);
  const auto tree = dijkstra(g, 0, EdgeWeight::cost());
  EXPECT_FALSE(tree.reached(2));
  EXPECT_THROW(tree.path_to(g, 2), util::CheckError);
}

TEST(Dijkstra, NegativeWeightThrows) {
  Digraph g(2);
  g.add_edge(0, 1, -1, 0);
  EXPECT_THROW(dijkstra(g, 0, EdgeWeight::cost()), util::CheckError);
}

TEST(Dijkstra, ParallelEdgesPickMin) {
  Digraph g(2);
  g.add_edge(0, 1, 9, 0);
  g.add_edge(0, 1, 4, 0);
  EXPECT_EQ(dijkstra(g, 0, EdgeWeight::cost()).dist[1], 4);
}

// Property: Dijkstra == Bellman-Ford on random non-negative graphs, for
// pure and combined weights.
TEST(Dijkstra, PropertyAgreesWithBellmanFord) {
  util::Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const auto g = gen::erdos_renyi(rng, 15, 0.25);
    for (const auto& w :
         {EdgeWeight::cost(), EdgeWeight::delay(), EdgeWeight::combined(3, 2)}) {
      const auto dj = dijkstra(g, 0, w);
      const auto bf = bellman_ford(g, 0, w);
      ASSERT_FALSE(bf.negative_cycle.has_value());
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        EXPECT_EQ(dj.dist[v], bf.tree.dist[v]) << "vertex " << v;
    }
  }
}

// Distances toward a target over in_edges equal distances from it on the
// reversed graph, unreached vertices included.
TEST(Dijkstra, ToTargetMatchesSearchOnReversedGraph) {
  util::Rng rng(107);
  for (int trial = 0; trial < 30; ++trial) {
    const auto g = gen::erdos_renyi(rng, 15, 0.2);
    const Digraph reversed = g.reversed();
    for (const auto& w : {EdgeWeight::cost(), EdgeWeight::combined(3, 2)}) {
      const VertexId target = static_cast<VertexId>(trial % 15);
      EXPECT_EQ(dijkstra_to(g, target, w), dijkstra(reversed, target, w).dist);
    }
  }
}

// The radix heap pops what a binary heap over (key, vertex) pairs pops,
// ties included, under monotone pushes with many equal keys. Without
// ordered ties it pops the same keys in the same order and, once drained,
// the same entries.
TEST(RadixHeap, OrderedTiesPopLikeABinaryHeapOverPairs) {
  util::Rng rng(109);
  RadixHeap radix(/*order_ties=*/true);
  RadixHeap any_order(/*order_ties=*/false);
  using Entry = RadixHeap::Entry;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> binary;
  std::vector<Entry> popped_binary;
  std::vector<Entry> popped_any_order;
  std::int64_t last = 0;
  for (int step = 0; step < 20000; ++step) {
    if (binary.empty() || rng.bernoulli(0.55)) {
      const std::int64_t key = last + rng.uniform_int(0, 3) *
                                          (rng.bernoulli(0.1) ? 1 << 20 : 1);
      const auto v = static_cast<VertexId>(rng.uniform_int(0, 50));
      radix.push(key, v);
      any_order.push(key, v);
      binary.emplace(key, v);
      continue;
    }
    const Entry want = binary.top();
    binary.pop();
    ASSERT_EQ(radix.pop(), want) << "step " << step;
    popped_any_order.push_back(any_order.pop());
    ASSERT_EQ(popped_any_order.back().first, want.first) << "step " << step;
    popped_binary.push_back(want);
    last = want.first;
  }
  for (; !binary.empty(); binary.pop()) {
    ASSERT_EQ(radix.pop(), binary.top());
    popped_binary.push_back(binary.top());
    popped_any_order.push_back(any_order.pop());
  }
  EXPECT_TRUE(radix.empty());
  EXPECT_TRUE(any_order.empty());
  std::sort(popped_binary.begin(), popped_binary.end());
  std::sort(popped_any_order.begin(), popped_any_order.end());
  EXPECT_EQ(popped_any_order, popped_binary);
}

// A key below the last popped one, such as a distance sum that wrapped to
// a negative value, has no bucket: the heap refuses it, in either mode.
TEST(RadixHeap, KeyBelowTheLastPoppedThrows) {
  for (const bool order_ties : {true, false}) {
    RadixHeap heap(order_ties);
    EXPECT_THROW(heap.push(-1, 0), util::CheckError);
    heap.push(5, 0);
    EXPECT_EQ(heap.pop(), (RadixHeap::Entry{5, 0}));
    EXPECT_THROW(heap.push(4, 1), util::CheckError);
    EXPECT_THROW(heap.push(std::numeric_limits<std::int64_t>::min(), 1),
                 util::CheckError);
    EXPECT_TRUE(heap.empty());
  }
}

TEST(ShortestPathTree, PathToSourceIsEmpty) {
  Digraph g(2);
  g.add_edge(0, 1, 1, 1);
  const auto tree = dijkstra(g, 0, EdgeWeight::cost());
  EXPECT_TRUE(tree.path_to(g, 0).empty());
}

}  // namespace
}  // namespace krsp::paths
