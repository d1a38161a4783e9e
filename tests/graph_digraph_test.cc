#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

namespace krsp::graph {
namespace {

TEST(Digraph, StartsEmpty) {
  Digraph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Digraph, AddVerticesAndEdges) {
  Digraph g(3);
  const EdgeId e0 = g.add_edge(0, 1, 5, 7);
  const EdgeId e1 = g.add_edge(1, 2, -3, 2);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(e0).from, 0);
  EXPECT_EQ(g.edge(e0).to, 1);
  EXPECT_EQ(g.edge(e0).cost, 5);
  EXPECT_EQ(g.edge(e0).delay, 7);
  EXPECT_EQ(g.edge(e1).cost, -3);
}

TEST(Digraph, SupportsParallelEdges) {
  Digraph g(2);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(0, 1, 2, 2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(1), 2);
}

TEST(Digraph, AdjacencyIsConsistent) {
  Digraph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 0);
  EXPECT_EQ(g.in_degree(3), 1);
  for (const EdgeId e : g.out_edges(0)) EXPECT_EQ(g.edge(e).from, 0);
  for (const EdgeId e : g.in_edges(3)) EXPECT_EQ(g.edge(e).to, 3);
}

TEST(Digraph, AddVertexGrows) {
  Digraph g(1);
  const VertexId v = g.add_vertex();
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_vertices(), 2);
}

TEST(Digraph, BadEndpointsThrow) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 0, 0), util::CheckError);
  EXPECT_THROW(g.add_edge(-1, 1, 0, 0), util::CheckError);
}

TEST(Digraph, Aggregates) {
  Digraph g(3);
  g.add_edge(0, 1, 4, 10);
  g.add_edge(1, 2, -6, 20);
  EXPECT_EQ(g.total_cost(), -2);
  EXPECT_EQ(g.total_delay(), 30);
  EXPECT_EQ(g.max_abs_cost(), 6);
  EXPECT_EQ(g.max_abs_delay(), 20);
}

TEST(Digraph, ReversedSwapsDirections) {
  Digraph g(3);
  g.add_edge(0, 1, 1, 2);
  g.add_edge(1, 2, 3, 4);
  const Digraph r = g.reversed();
  EXPECT_EQ(r.num_edges(), 2);
  EXPECT_EQ(r.edge(0).from, 1);
  EXPECT_EQ(r.edge(0).to, 0);
  EXPECT_EQ(r.edge(0).cost, 1);
}

// A three-vertex graph with two edges, and a check that another graph has
// exactly its shape and weights.
Digraph small_graph() {
  Digraph g(3);
  g.add_edge(0, 1, 1, 2);
  g.add_edge(1, 2, 3, 4);
  return g;
}

void expect_small_graph(const Digraph& g) {
  ASSERT_EQ(g.num_vertices(), 3);
  ASSERT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(0).from, 0);
  EXPECT_EQ(g.edge(0).delay, 2);
  EXPECT_EQ(g.edge(1).to, 2);
  EXPECT_EQ(g.edge(1).delay, 4);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(2), 1);
}

TEST(Digraph, CopiesShareStorage) {
  const Digraph g = small_graph();
  const Digraph copy = g;
  Digraph assigned;
  assigned = copy;
  for (const Digraph* other : {&copy, static_cast<const Digraph*>(&assigned)}) {
    EXPECT_EQ(other->edges().data(), g.edges().data());
    EXPECT_EQ(other->out_edges(0).data(), g.out_edges(0).data());
    EXPECT_EQ(other->in_edges(2).data(), g.in_edges(2).data());
  }
}

// Each mutator on a copy changes that copy alone: the original and a
// second copy keep the old graph and still share it.
TEST(Digraph, EveryMutatorOnACopyLeavesOriginalAndOtherCopiesUnchanged) {
  const std::vector<std::pair<const char*, std::function<void(Digraph&)>>>
      mutators = {
          {"resize", [](Digraph& g) { g.resize(5); }},
          {"add_vertex", [](Digraph& g) { g.add_vertex(); }},
          {"add_edge", [](Digraph& g) { g.add_edge(2, 0, 5, 6); }},
          {"clear_edges", [](Digraph& g) { g.clear_edges(); }},
          {"set_edge_delay", [](Digraph& g) { g.set_edge_delay(1, 9); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    const Digraph original = small_graph();
    Digraph changed = original;
    const Digraph other = original;
    mutate(changed);
    EXPECT_NE(changed.edges().data(), original.edges().data());
    expect_small_graph(original);
    expect_small_graph(other);
    EXPECT_EQ(other.edges().data(), original.edges().data());
  }
  Digraph grown = small_graph();
  const Digraph copy = grown;
  grown.resize(5);
  EXPECT_EQ(grown.num_vertices(), 5);
  EXPECT_EQ(copy.num_vertices(), 3);
  Digraph cleared = small_graph();
  const Digraph kept = cleared;
  cleared.clear_edges();
  EXPECT_EQ(cleared.num_vertices(), 3);
  EXPECT_EQ(cleared.num_edges(), 0);
  EXPECT_EQ(cleared.out_degree(0), 0);
  expect_small_graph(kept);
}

// A graph no other graph shares is mutated in place: a resize that does
// not grow, a delay update, and clearing then re-adding edges keep its
// storage, as residual graphs rebuilt every cancellation round rely on.
TEST(Digraph, UnsharedGraphIsMutatedInPlace) {
  Digraph g = small_graph();
  const Edge* edges = g.edges().data();
  const EdgeId* out0 = g.out_edges(0).data();
  g.resize(2);
  g.set_edge_delay(0, 7);
  EXPECT_EQ(g.edge(0).delay, 7);
  g.clear_edges();
  g.add_edge(0, 1, 1, 1);
  EXPECT_EQ(g.edges().data(), edges);
  EXPECT_EQ(g.out_edges(0).data(), out0);
  {
    const Digraph copy = g;
    EXPECT_EQ(copy.edges().data(), edges);
  }
  g.add_edge(0, 2, 1, 1);  // the copy is gone: still in place
  EXPECT_EQ(g.edges().data(), edges);
}

TEST(Digraph, MovedFromAndDefaultGraphsAreValidAndEmpty) {
  Digraph g = small_graph();
  const Edge* edges = g.edges().data();
  Digraph moved = std::move(g);
  EXPECT_EQ(moved.edges().data(), edges);
  expect_small_graph(moved);
  // The moved-from graph is empty and usable.
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.total_cost(), 0);
  EXPECT_EQ(g.reversed().num_vertices(), 0);
  g.clear_edges();
  EXPECT_EQ(g.add_vertex(), 0);
  EXPECT_EQ(g.add_vertex(), 1);
  g.add_edge(0, 1, 1, 1);
  EXPECT_EQ(g.num_edges(), 1);
  Digraph assigned;
  assigned = std::move(moved);
  expect_small_graph(assigned);
  const Digraph& self = assigned;
  assigned = self;
  expect_small_graph(assigned);
  const Digraph empty;
  Digraph from_empty = empty;
  EXPECT_EQ(from_empty.num_vertices(), 0);
  from_empty.resize(2);
  EXPECT_EQ(from_empty.num_vertices(), 2);
  EXPECT_EQ(empty.num_vertices(), 0);
  EXPECT_EQ(Digraph(0).num_vertices(), 0);
}

TEST(PathHelpers, CostAndDelay) {
  Digraph g(3);
  const EdgeId a = g.add_edge(0, 1, 2, 5);
  const EdgeId b = g.add_edge(1, 2, 3, 7);
  const std::vector<EdgeId> p{a, b};
  EXPECT_EQ(path_cost(g, p), 5);
  EXPECT_EQ(path_delay(g, p), 12);
}

TEST(PathHelpers, IsWalkValidation) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1, 0, 0);
  const EdgeId b = g.add_edge(1, 2, 0, 0);
  const EdgeId c = g.add_edge(2, 0, 0, 0);
  EXPECT_TRUE(is_walk(g, std::vector<EdgeId>{a, b}, 0, 2));
  EXPECT_TRUE(is_walk(g, std::vector<EdgeId>{a, b, c}, 0, 0));
  EXPECT_FALSE(is_walk(g, std::vector<EdgeId>{b, a}, 1, 1));
  EXPECT_TRUE(is_walk(g, std::vector<EdgeId>{}, 3, 3));
  EXPECT_FALSE(is_walk(g, std::vector<EdgeId>{}, 0, 3));
}

TEST(PathHelpers, IsSimplePathRejectsRepeats) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1, 0, 0);
  const EdgeId b = g.add_edge(1, 2, 0, 0);
  const EdgeId c = g.add_edge(2, 1, 0, 0);
  const EdgeId d = g.add_edge(1, 3, 0, 0);
  EXPECT_TRUE(is_simple_path(g, std::vector<EdgeId>{a, b}, 0, 2));
  // 0->1->2->1->3 repeats vertex 1.
  EXPECT_FALSE(is_simple_path(g, std::vector<EdgeId>{a, b, c, d}, 0, 3));
}

}  // namespace
}  // namespace krsp::graph
