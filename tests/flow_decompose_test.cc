#include "flow/decompose.h"

#include <gtest/gtest.h>

#include <set>

#include "flow/min_cost_flow.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::flow {
namespace {

using graph::Digraph;
using graph::EdgeId;

TEST(Decompose, TwoDisjointPaths) {
  Digraph g(4);
  std::vector<EdgeId> edges;
  edges.push_back(g.add_edge(0, 1, 0, 0));
  edges.push_back(g.add_edge(1, 3, 0, 0));
  edges.push_back(g.add_edge(0, 2, 0, 0));
  edges.push_back(g.add_edge(2, 3, 0, 0));
  const auto d = decompose_unit_flow(g, edges, 0, 3, 2);
  EXPECT_EQ(d.paths.size(), 2u);
  EXPECT_TRUE(d.cycles.empty());
  for (const auto& p : d.paths) EXPECT_TRUE(graph::is_simple_path(g, p, 0, 3));
}

TEST(Decompose, SeparatesCycleFromPath) {
  Digraph g(4);
  std::vector<EdgeId> edges;
  edges.push_back(g.add_edge(0, 1, 0, 0));
  edges.push_back(g.add_edge(1, 3, 0, 0));
  // A disjoint cycle 2->2 via two arcs.
  edges.push_back(g.add_edge(2, 1, 0, 0));
  edges.push_back(g.add_edge(1, 2, 0, 0));
  const auto d = decompose_unit_flow(g, edges, 0, 3, 1);
  EXPECT_EQ(d.paths.size(), 1u);
  ASSERT_EQ(d.cycles.size(), 1u);
  EXPECT_EQ(d.cycles[0].size(), 2u);
}

TEST(Decompose, PathThroughRepeatedVertexPopsCycle) {
  // Walk 0->1->2->1->3 has vertex 1 twice: the 1->2->1 loop must come out
  // as a cycle, leaving simple path 0->1->3.
  Digraph g(4);
  std::vector<EdgeId> edges;
  edges.push_back(g.add_edge(0, 1, 0, 0));
  edges.push_back(g.add_edge(1, 2, 0, 0));
  edges.push_back(g.add_edge(2, 1, 0, 0));
  edges.push_back(g.add_edge(1, 3, 0, 0));
  const auto d = decompose_unit_flow(g, edges, 0, 3, 1);
  ASSERT_EQ(d.paths.size(), 1u);
  EXPECT_TRUE(graph::is_simple_path(g, d.paths[0], 0, 3));
  EXPECT_EQ(d.cycles.size(), 1u);
}

TEST(Decompose, DivergenceViolationThrows) {
  Digraph g(3);
  std::vector<EdgeId> edges;
  edges.push_back(g.add_edge(0, 1, 0, 0));
  EXPECT_THROW(decompose_unit_flow(g, edges, 0, 2, 1), util::CheckError);
}

TEST(Decompose, KZeroWithPureCycles) {
  Digraph g(2);
  std::vector<EdgeId> edges;
  edges.push_back(g.add_edge(0, 1, 0, 0));
  edges.push_back(g.add_edge(1, 0, 0, 0));
  const auto d = decompose_unit_flow(g, edges, 0, 1, 0);
  EXPECT_TRUE(d.paths.empty());
  EXPECT_EQ(d.cycles.size(), 1u);
}

// Property: decomposing a real min-cost flow yields exactly k disjoint
// simple paths partitioning the flow edges (with any cycles), and the
// partition conserves every edge exactly once.
TEST(Decompose, PropertyPartitionOfMinCostFlows) {
  util::Rng rng(157);
  for (int trial = 0; trial < 25; ++trial) {
    const auto g = gen::erdos_renyi(rng, 12, 0.3);
    for (const int k : {1, 2, 3}) {
      const auto f = McfWorkspace().min_weight_flow(g, 0, 11, k, 1, 1);
      if (!f) continue;
      const auto d = decompose_unit_flow(g, *f, 0, 11, k);
      EXPECT_EQ(static_cast<int>(d.paths.size()), k);
      std::set<EdgeId> seen;
      std::size_t total = 0;
      for (const auto& p : d.paths) {
        EXPECT_TRUE(graph::is_simple_path(g, p, 0, 11));
        total += p.size();
        for (const EdgeId e : p) EXPECT_TRUE(seen.insert(e).second);
      }
      for (const auto& c : d.cycles) {
        total += c.size();
        for (const EdgeId e : c) EXPECT_TRUE(seen.insert(e).second);
      }
      EXPECT_EQ(total, f->size());
    }
  }
}

}  // namespace
}  // namespace krsp::flow
