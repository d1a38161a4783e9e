#include "core/io.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

// The instance's own invariants name a line too: a negative weight its
// arc's line, a bad query field the query line.
TEST(InstanceIo, InvalidInstanceNamesTheLine) {
  const auto message = [](const std::string& text) {
    return error_message([&] {
      std::stringstream ss(text);
      (void)read_instance(ss);
    });
  };
  EXPECT_EQ(message("p krsp 2 2\na 0 1 1 1\na 1 0 -1 1\nq 0 1 1 5\n"),
            "line 3: negative arc cost or delay");
  // Query fields get core::query_error's wording, the one every entry
  // point shares, prefixed by the query line.
  EXPECT_EQ(message("q 0 2 1 5\np krsp 2 1\na 0 1 1 1\n"),
            "line 1: bad sink 2");
  EXPECT_EQ(message("p krsp 2 1\na 0 1 1 1\nq -1 1 1 5\n"),
            "line 3: bad source -1");
  EXPECT_EQ(message("p krsp 2 1\na 0 1 1 1\nq 1 1 1 5\n"),
            "line 3: s == t");
  EXPECT_EQ(message("p krsp 2 1\na 0 1 1 1\nq 0 1 0 5\n"),
            "line 3: k = 0");
  EXPECT_EQ(message("p krsp 2 1\na 0 1 1 1\nq 0 1 1 -1\n"),
            "line 3: D = -1");
}

// Seeded mutations of a valid instance text: bit flips, byte overwrites,
// truncations, dropped and duplicated lines, and one number set to 0, -1,
// 2^31 or 2^62. Each mutant parses to an instance that passes validate()
// or is refused with a CheckError that names its line; no other exception,
// crash or unbounded allocation (the ASan/UBSan leg runs this too).
TEST(InstanceIo, MutatedInstancesParseValidOrFailWithALine) {
  std::stringstream original;
  write_instance(original, sample_instance());
  const std::string text = original.str();
  std::vector<std::string> lines;
  for (std::string line; std::getline(original, line);) lines.push_back(line);
  const auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const auto& part : parts) out += part + "\n";
    return out;
  };
  util::Rng rng(2031);
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  const char* const numbers[] = {"0", "-1", "2147483648",
                                 "4611686018427387904"};
  constexpr int kTrials = 2000;
  int rejected = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string bad = text;
    switch (trial % 6) {
      case 0: {
        const std::size_t at = pick(bad.size());
        bad[at] = static_cast<char>(bad[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1:
        bad[pick(bad.size())] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:
        bad.resize(pick(bad.size()));
        break;
      case 3: {
        std::vector<std::string> kept = lines;
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(pick(kept.size())));
        bad = join(kept);
        break;
      }
      case 4: {
        std::vector<std::string> doubled = lines;
        const std::string copy = doubled[pick(doubled.size())];
        doubled.insert(
            doubled.begin() + static_cast<std::ptrdiff_t>(pick(doubled.size() + 1)),
            copy);
        bad = join(doubled);
        break;
      }
      case 5: {
        // One maximal digit run, outside the comment line, becomes one of
        // the numbers.
        std::vector<std::pair<std::size_t, std::size_t>> runs;
        for (std::size_t i = text.find('\n'); i < text.size(); ++i) {
          if (!std::isdigit(static_cast<unsigned char>(text[i]))) continue;
          std::size_t end = i;
          while (end < text.size() &&
                 std::isdigit(static_cast<unsigned char>(text[end])))
            ++end;
          runs.emplace_back(i, end - i);
          i = end;
        }
        const auto [at, length] = runs[pick(runs.size())];
        bad.replace(at, length, numbers[rng.uniform_int(0, 3)]);
        break;
      }
    }
    try {
      std::stringstream in(bad);
      const Instance inst = read_instance(in);
      EXPECT_NO_THROW(inst.validate());
    } catch (const util::CheckError& e) {
      ++rejected;
      EXPECT_EQ(std::string(e.what()).rfind("line ", 0), 0u) << e.what();
    }
  }
  EXPECT_GT(rejected, kTrials / 2);
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
