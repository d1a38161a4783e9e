#include "graph/io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::graph {
namespace {

TEST(GraphIo, RoundTripSmall) {
  Digraph g(3);
  g.add_edge(0, 1, 5, 7);
  g.add_edge(1, 2, 0, 3);
  g.add_edge(2, 0, 9, 1);
  std::stringstream ss;
  write_graph(ss, g);
  const Digraph h = read_graph(ss);
  ASSERT_EQ(h.num_vertices(), 3);
  ASSERT_EQ(h.num_edges(), 3);
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(h.edge(e).from, g.edge(e).from);
    EXPECT_EQ(h.edge(e).to, g.edge(e).to);
    EXPECT_EQ(h.edge(e).cost, g.edge(e).cost);
    EXPECT_EQ(h.edge(e).delay, g.edge(e).delay);
  }
}

TEST(GraphIo, RoundTripRandomProperty) {
  util::Rng rng(53);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = gen::erdos_renyi(rng, 20, 0.2);
    std::stringstream ss;
    write_graph(ss, g);
    const Digraph h = read_graph(ss);
    ASSERT_EQ(h.num_vertices(), g.num_vertices());
    ASSERT_EQ(h.num_edges(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(h.edge(e).from, g.edge(e).from);
      EXPECT_EQ(h.edge(e).cost, g.edge(e).cost);
      EXPECT_EQ(h.edge(e).delay, g.edge(e).delay);
    }
  }
}

TEST(GraphIo, CommentsIgnored) {
  std::stringstream ss("c a comment\np krsp 2 1\nc another\na 0 1 4 5\n");
  const Digraph g = read_graph(ss);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(0).cost, 4);
}

TEST(GraphIo, MissingHeaderThrows) {
  std::stringstream ss("a 0 1 4 5\n");
  EXPECT_THROW(read_graph(ss), util::CheckError);
}

TEST(GraphIo, EdgeCountMismatchThrows) {
  std::stringstream ss("p krsp 2 2\na 0 1 4 5\n");
  EXPECT_THROW(read_graph(ss), util::CheckError);
}

TEST(GraphIo, MalformedArcThrows) {
  std::stringstream ss("p krsp 2 1\na 0 1 nonsense\n");
  EXPECT_THROW(read_graph(ss), util::CheckError);
}

TEST(GraphIo, FileRoundTrip) {
  util::Rng rng(59);
  const auto g = gen::grid(rng, 3, 3);
  const std::string path = testing::TempDir() + "/krsp_io_test.gr";
  write_graph_file(path, g);
  const Digraph h = read_graph_file(path);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

TEST(GraphIo, UnreadableFileThrows) {
  EXPECT_THROW(read_graph_file("/nonexistent/nope.gr"), util::CheckError);
}

// ------------------------------------------- positioned parse errors ---
// Regression tests for the line/column error contract: a malformed file
// must name where it is malformed, not just that it is.

template <typename Fn>
std::string error_message(Fn fn) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::CheckError";
  return "";
}

TEST(GraphIo, MalformedTokenNamesLineColumnAndField) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 3 1\na 0 1 x 5\n");
    (void)read_graph(ss);
  });
  EXPECT_EQ(msg, "line 2, column 7: expected integer for arc cost, got \"x\"");
}

TEST(GraphIo, IntegerOverflowIsDiagnosedNotWrapped) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1\na 0 1 99999999999999999999 5\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(msg.find("line 2, column 7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("arc cost overflows 64 bits"), std::string::npos) << msg;
}

// Counts past int32 used to wrap into a different valid graph
// (4294967299 vertices read as 3).
TEST(GraphIo, CountsPastInt32AreRejectedNotWrapped) {
  const std::string n = error_message([] {
    std::stringstream ss("p krsp 4294967299 2\n");
    (void)read_graph(ss);
  });
  EXPECT_EQ(n, "line 1, column 8: vertex count 4294967299 overflows 32 bits");
  const std::string m = error_message([] {
    std::stringstream ss("p krsp 3 4294967298\na 0 1 1 1\na 1 2 1 1\n");
    (void)read_graph(ss);
  });
  EXPECT_EQ(m, "line 1, column 10: edge count 4294967298 overflows 32 bits");
}

// A 'p' line may declare at most as many vertices as the input has bytes,
// so the graph is never sized past the input.
TEST(GraphIo, VertexCountPastTheInputSizeIsRejected) {
  const std::string text = "p krsp 1000000 0\n";
  const std::string want =
      "line 1, column 17: vertex count 1000000 exceeds the input size (17 "
      "bytes)";
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(text);
              (void)read_graph(ss);
            }),
            want);
  const std::string path = testing::TempDir() + "/krsp_many_vertices.gr";
  std::ofstream(path) << text;
  EXPECT_EQ(error_message([&] { (void)read_graph_file(path); }),
            path + ": " + want);

  std::stringstream at_bound("p krsp 11 0\n");
  EXPECT_EQ(read_graph(at_bound).num_vertices(), 11);
}

TEST(GraphIo, SemanticErrorsArePositionedToo) {
  const std::string out_of_range = error_message([] {
    std::stringstream ss("p krsp 3 1\na 0 7 1 1\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(out_of_range.find("line 2"), std::string::npos) << out_of_range;
  EXPECT_NE(out_of_range.find("arc endpoint out of range (graph has 3"),
            std::string::npos)
      << out_of_range;

  const std::string bad_tag = error_message([] {
    std::stringstream ss("p foo 2 1\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(bad_tag.find("line 1"), std::string::npos) << bad_tag;
  EXPECT_NE(bad_tag.find("unexpected problem tag \"foo\""), std::string::npos)
      << bad_tag;

  const std::string unknown_kind = error_message([] {
    std::stringstream ss("p krsp 2 0\nz 1 2\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(unknown_kind.find("line 2"), std::string::npos) << unknown_kind;
  EXPECT_NE(unknown_kind.find("unknown line kind 'z'"), std::string::npos)
      << unknown_kind;

  const std::string early_arc = error_message([] {
    std::stringstream ss("c no header yet\na 0 1 1 1\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(early_arc.find("line 2"), std::string::npos) << early_arc;
  EXPECT_NE(early_arc.find("arc line before the problem"), std::string::npos)
      << early_arc;
}

TEST(GraphIo, TrailingContentIsRejectedWithItsPosition) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1 extra\na 0 1 1 1\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unexpected trailing content \"extra\""),
            std::string::npos)
      << msg;
}

TEST(GraphIo, EdgeCountMismatchReportsBothCounts) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 2\na 0 1 4 5\n");
    (void)read_graph(ss);
  });
  EXPECT_NE(msg.find("declared 2, read 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(GraphIo, FileErrorsLeadWithThePath) {
  const std::string path = testing::TempDir() + "/krsp_io_bad.gr";
  {
    std::ofstream os(path);
    os << "p krsp 2 1\na 0 1 bad 5\n";
  }
  const std::string msg =
      error_message([&] { (void)read_graph_file(path); });
  EXPECT_EQ(msg.rfind(path + ": line 2", 0), 0u) << msg;
}

}  // namespace
}  // namespace krsp::graph
