#include "core/io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/solver.h"
#include "graph/io.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

Instance sample_instance() {
  util::Rng rng(421);
  RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.4;
  auto inst = random_er_instance(rng, 10, 0.35, opt);
  KRSP_CHECK(inst.has_value());
  return *inst;
}

TEST(InstanceIo, RoundTripStream) {
  const auto inst = sample_instance();
  std::stringstream ss;
  write_instance(ss, inst);
  const auto back = read_instance(ss);
  EXPECT_EQ(back.s, inst.s);
  EXPECT_EQ(back.t, inst.t);
  EXPECT_EQ(back.k, inst.k);
  EXPECT_EQ(back.delay_bound, inst.delay_bound);
  ASSERT_EQ(back.graph.num_edges(), inst.graph.num_edges());
  for (graph::EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge(e).cost, inst.graph.edge(e).cost);
    EXPECT_EQ(back.graph.edge(e).delay, inst.graph.edge(e).delay);
  }
}

TEST(InstanceIo, RoundTripFilePreservesSolverResult) {
  const auto inst = sample_instance();
  const std::string path = testing::TempDir() + "/krsp_instance.kri";
  write_instance_file(path, inst);
  const auto back = read_instance_file(path);
  const auto a = KrspSolver().solve(inst);
  const auto b = KrspSolver().solve(back);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delay, b.delay);
}

TEST(InstanceIo, MissingQueryLineThrows) {
  const auto inst = sample_instance();
  std::stringstream ss;
  graph::write_graph(ss, inst.graph);  // no q line
  EXPECT_THROW(read_instance(ss), util::CheckError);
}

// Positioned-error regressions for the query ('q') line, which the
// instance reader parses itself — its errors must carry the real line
// number of the original stream, not a renumbered graph-only stream.

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

TEST(InstanceIo, MalformedQueryFieldNamesLineAndColumn) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1\na 0 1 1 1\nq 0 x 2 5\n");
    (void)read_instance(ss);
  });
  EXPECT_EQ(msg,
            "line 3, column 5: expected integer for target vertex, got \"x\"");
}

// Query fields past int32 used to wrap into a different valid query
// (t = 4294967298 read as 2, k = 4294967297 as 1).
TEST(InstanceIo, QueryFieldsPastInt32AreRejectedNotWrapped) {
  const std::string t = error_message([] {
    std::stringstream ss(
        "p krsp 3 2\na 0 1 1 1\na 1 2 1 1\nq 0 4294967298 1 5\n");
    (void)read_instance(ss);
  });
  EXPECT_EQ(t, "line 4, column 5: target vertex 4294967298 overflows 32 bits");
  const std::string k = error_message([] {
    std::stringstream ss(
        "p krsp 3 2\na 0 1 1 1\na 1 2 1 1\nq 0 2 4294967297 5\n");
    (void)read_instance(ss);
  });
  EXPECT_EQ(k, "line 4, column 7: path count k 4294967297 overflows 32 bits");
}

// A 'p' line cannot declare more vertices than the input has bytes; the
// error comes before the graph is sized (a million declared vertices used
// to allocate about 95 MiB for this 27-byte input). The bound is inclusive.
TEST(InstanceIo, VertexCountPastTheInputSizeIsRejectedBeforeSizing) {
  const std::string text = "p krsp 1000000 0\nq 0 1 1 5\n";
  const std::string want =
      "line 1, column 17: vertex count 1000000 exceeds the input size (27 "
      "bytes)";
  EXPECT_EQ(error_message([&] {
              std::stringstream ss(text);
              (void)read_instance(ss);
            }),
            want);
  const std::string path = testing::TempDir() + "/krsp_many_vertices.kri";
  std::ofstream(path) << text;
  EXPECT_EQ(error_message([&] { (void)read_instance_file(path); }),
            path + ": " + want);

  std::string at_bound = "p krsp 40 0\nq 0 1 1 5\nc ";
  at_bound += std::string(40 - at_bound.size() - 1, 'x') + "\n";
  ASSERT_EQ(at_bound.size(), 40u);
  std::stringstream ss(at_bound);
  EXPECT_EQ(read_instance(ss).graph.num_vertices(), 40);
}

TEST(InstanceIo, DuplicateQueryLineNamesTheFirst) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1\na 0 1 1 1\nq 0 1 1 5\nq 0 1 1 5\n");
    (void)read_instance(ss);
  });
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate query line (first at line 3)"),
            std::string::npos)
      << msg;
}

TEST(InstanceIo, QueryTrailingContentRejected) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1\na 0 1 1 1\nq 0 1 1 5 9\n");
    (void)read_instance(ss);
  });
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unexpected trailing content"), std::string::npos) << msg;
}

TEST(InstanceIo, MissingQueryErrorIsPositionedAtStreamEnd) {
  const std::string msg = error_message([] {
    std::stringstream ss("p krsp 2 1\na 0 1 1 1\n");
    (void)read_instance(ss);
  });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing the query"), std::string::npos) << msg;
}

TEST(InstanceIo, FileErrorsLeadWithThePath) {
  const std::string path = testing::TempDir() + "/krsp_bad_instance.kri";
  {
    std::ofstream os(path);
    os << "p krsp 2 1\na 0 1 1 oops\nq 0 1 1 5\n";
  }
  const std::string msg =
      error_message([&] { (void)read_instance_file(path); });
  EXPECT_EQ(msg.rfind(path + ": line 2", 0), 0u) << msg;
}

TEST(PathsIo, RoundTrip) {
  const auto inst = sample_instance();
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  std::stringstream ss;
  write_paths(ss, s.paths);
  const auto back = read_paths(ss, inst);
  EXPECT_EQ(back.paths(), s.paths.paths());
  EXPECT_EQ(back.total_cost(inst.graph), s.cost);
}

TEST(PathsIo, InvalidPathsRejectedOnRead) {
  const auto inst = sample_instance();
  std::stringstream ss("r 0\n");  // almost surely not a full s-t path set
  EXPECT_THROW(read_paths(ss, inst), util::CheckError);
}

}  // namespace
}  // namespace krsp::core
