#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "util/check.h"

namespace krsp::graph {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

void FieldScanner::fail(const std::string& why, std::size_t column) const {
  std::ostringstream os;
  if (!context_.empty()) os << context_ << ": ";
  os << "line " << line_number_ << ", column " << (column + 1) << ": " << why;
  throw util::CheckError(os.str());
}

void FieldScanner::skip_spaces() {
  while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
}

char FieldScanner::kind() {
  skip_spaces();
  if (pos_ >= line_.size()) fail("expected a line kind", pos_);
  const char c = line_[pos_++];
  if (pos_ < line_.size() && !is_space(line_[pos_]))
    fail("line kind must be a single character", pos_ - 1);
  return c;
}

std::int64_t FieldScanner::integer(const char* what) {
  skip_spaces();
  const std::size_t start = pos_;
  if (pos_ >= line_.size())
    fail(std::string("missing ") + what + " (expected an integer)", start);
  if (line_[pos_] == '-' || line_[pos_] == '+') ++pos_;
  while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(line_.data() + start, line_.data() + pos_, value);
  if (ec == std::errc::result_out_of_range)
    fail(std::string(what) + " overflows 64 bits", start);
  if (ec != std::errc() || end != line_.data() + pos_)
    fail(std::string("expected integer for ") + what + ", got \"" +
             std::string(line_.substr(start, pos_ - start)) + "\"",
         start);
  return value;
}

int FieldScanner::int32(const char* what) {
  skip_spaces();
  const std::size_t start = pos_;
  const std::int64_t value = integer(what);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    fail(std::string(what) + " " + std::to_string(value) +
             " overflows 32 bits",
         start);
  return static_cast<int>(value);
}

std::string FieldScanner::word(const char* what) {
  skip_spaces();
  const std::size_t start = pos_;
  while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
  if (pos_ == start) fail(std::string("missing ") + what, start);
  return std::string(line_.substr(start, pos_ - start));
}

void FieldScanner::expect_end() {
  skip_spaces();
  if (pos_ < line_.size())
    fail("unexpected trailing content \"" + std::string(line_.substr(pos_)) +
             "\"",
         pos_);
}

bool FieldScanner::at_end() {
  skip_spaces();
  return pos_ >= line_.size();
}

void FieldScanner::error(const std::string& why) const { fail(why, pos_); }

void GraphParser::consume(std::string_view line, int line_number) {
  last_line_ = line_number;
  FieldScanner scan(line, line_number, context_);
  if (scan.at_end()) return;  // blank line
  const char kind = scan.kind();
  if (kind == 'c') return;  // comment; rest of line is free-form
  if (kind == 'p') {
    const std::string tag = scan.word("problem tag");
    if (tag != "krsp") scan.error("unexpected problem tag \"" + tag + "\"");
    const int n = scan.int32("vertex count");
    const int m = scan.int32("edge count");
    scan.expect_end();
    if (n < 0 || m < 0)
      scan.error("vertex/edge counts must be non-negative");
    if (static_cast<std::size_t>(n) > input_bytes_)
      scan.error("vertex count " + std::to_string(n) +
                 " exceeds the input size (" + std::to_string(input_bytes_) +
                 " bytes)");
    graph_.resize(n);
    declared_edges_ = m;
    have_header_ = true;
    return;
  }
  if (kind == 'a') {
    if (!have_header_)
      scan.error("arc line before the problem ('p') line");
    const std::int64_t u = scan.integer("arc tail");
    const std::int64_t v = scan.integer("arc head");
    const Cost c = scan.integer("arc cost");
    const Delay d = scan.integer("arc delay");
    scan.expect_end();
    if (u < 0 || u >= graph_.num_vertices() || v < 0 ||
        v >= graph_.num_vertices())
      scan.error("arc endpoint out of range (graph has " +
                 std::to_string(graph_.num_vertices()) + " vertices)");
    graph_.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v), c, d);
    return;
  }
  scan.error(std::string("unknown line kind '") + kind + "'");
}

Digraph GraphParser::finish() {
  const auto positioned = [&](const std::string& why) -> util::CheckError {
    std::ostringstream os;
    if (!context_.empty()) os << context_ << ": ";
    os << "line " << last_line_ << ": " << why;
    return util::CheckError(os.str());
  };
  if (!have_header_)
    throw positioned("graph stream missing the problem ('p') line");
  if (declared_edges_ != graph_.num_edges())
    throw positioned("edge count mismatch: declared " +
                     std::to_string(declared_edges_) + ", read " +
                     std::to_string(graph_.num_edges()));
  return std::move(graph_);
}

void write_graph(std::ostream& os, const Digraph& g) {
  os << "c krsp digraph, cost+delay per arc\n";
  os << "p krsp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& e : g.edges())
    os << "a " << e.from << ' ' << e.to << ' ' << e.cost << ' ' << e.delay
       << '\n';
}

namespace {

// Reads the whole input first, so the parser knows its size.
Digraph read_graph_impl(std::istream& is, std::string_view context) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  GraphParser parser(context, text.size());
  int line_number = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    parser.consume(std::string_view(text).substr(pos, end - pos),
                   ++line_number);
    pos = end + 1;
  }
  return parser.finish();
}

}  // namespace

Digraph read_graph(std::istream& is) { return read_graph_impl(is, ""); }

void write_graph_file(const std::string& path, const Digraph& g) {
  std::ofstream os(path);
  KRSP_CHECK_MSG(os.good(), "cannot open for write: " << path);
  write_graph(os, g);
}

Digraph read_graph_file(const std::string& path) {
  std::ifstream is(path);
  KRSP_CHECK_MSG(is.good(), "cannot open for read: " << path);
  return read_graph_impl(is, path);
}

}  // namespace krsp::graph
