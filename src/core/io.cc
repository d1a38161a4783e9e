#include "core/io.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <vector>

#include "graph/io.h"
#include "util/check.h"

namespace krsp::core {

void write_instance(std::ostream& os, const Instance& inst) {
  inst.validate();
  graph::write_graph(os, inst.graph);
  os << "q " << inst.s << ' ' << inst.t << ' ' << inst.k << ' '
     << inst.delay_bound << '\n';
}

namespace {

// Single pass over the input: graph lines go to the incremental parser,
// the 'q' query line is handled here — all with real line numbers, so a
// malformed token anywhere reports "line N, column C" of the original
// input. The parser knows the input's size, so a 'p' line cannot declare
// more vertices than the input has bytes. The instance's own invariants
// (Instance::validate's whole model) are checked last and name a line
// too: a negative weight its arc's line, a query_error the query line.
Instance read_instance_impl(std::string_view text, std::string_view context) {
  Instance inst;
  graph::GraphParser parser(context, text.size());
  int line_number = 0;
  bool have_query = false;
  int query_line = 0;
  std::vector<int> arc_lines;  // by edge id
  const auto fail_at = [&](int line, const std::string& why) {
    std::ostringstream os;
    if (!context.empty()) os << context << ": ";
    os << "line " << line << ": " << why;
    throw util::CheckError(os.str());
  };
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    graph::FieldScanner peek(line, line_number, context);
    if (peek.at_end()) continue;
    const char kind = peek.kind();
    if (kind != 'q') {
      parser.consume(line, line_number);
      if (kind == 'a') arc_lines.push_back(line_number);
      continue;
    }
    // peek consumed the 'q'; continue scanning the same line.
    if (have_query)
      peek.error("duplicate query line (first at line " +
                 std::to_string(query_line) + ")");
    inst.s = peek.int32("source vertex");
    inst.t = peek.int32("target vertex");
    inst.k = peek.int32("path count k");
    inst.delay_bound = peek.integer("delay bound");
    peek.expect_end();
    have_query = true;
    query_line = line_number;
  }
  inst.graph = parser.finish();
  if (!have_query)
    fail_at(line_number, "instance stream missing the query ('q') line");
  const auto edges = inst.graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e)
    if (edges[e].cost < 0 || edges[e].delay < 0)
      fail_at(arc_lines[e], "negative arc cost or delay");
  const std::string why = query_error(inst.graph.num_vertices(), inst.s,
                                      inst.t, inst.k, inst.delay_bound);
  if (!why.empty()) fail_at(query_line, why);
  return inst;
}

std::string read_all(std::istream& is) {
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

}  // namespace

Instance read_instance(std::istream& is) {
  return read_instance_impl(read_all(is), "");
}

void write_instance_file(const std::string& path, const Instance& inst) {
  std::ofstream os(path);
  KRSP_CHECK_MSG(os.good(), "cannot open for write: " << path);
  write_instance(os, inst);
}

Instance read_instance_file(const std::string& path) {
  std::ifstream is(path);
  KRSP_CHECK_MSG(is.good(), "cannot open for read: " << path);
  return read_instance_impl(read_all(is), path);
}

void write_paths(std::ostream& os, const PathSet& paths) {
  for (const auto& p : paths.paths()) {
    os << 'r';
    for (const graph::EdgeId e : p) os << ' ' << e;
    os << '\n';
  }
}

PathSet read_paths(std::istream& is, const Instance& validate_against) {
  std::vector<std::vector<graph::EdgeId>> paths;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != 'r') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    std::vector<graph::EdgeId> path;
    graph::EdgeId e;
    while (ls >> e) path.push_back(e);
    paths.push_back(std::move(path));
  }
  PathSet result(std::move(paths));
  std::string why;
  KRSP_CHECK_MSG(result.is_valid(validate_against, &why),
                 "read_paths: invalid path set: " << why);
  return result;
}

}  // namespace krsp::core
