// Plain-text serialization of graphs (DIMACS-flavored), used by examples and
// for persisting benchmark workloads.
//
// Format:
//   p krsp <num_vertices> <num_edges>
//   a <from> <to> <cost> <delay>     (one line per edge, 0-based vertices)
// Lines starting with 'c' are comments.
//
// Parse errors are util::CheckError with positional context — "file.kri:
// line 12, column 7: expected integer for arc cost" — produced by
// FieldScanner, a single-line tokenizer that tracks columns. GraphParser
// consumes lines one at a time with caller-supplied line numbers, so a
// reader that interleaves its own line kinds (core::read_instance's 'q'
// query line) still reports real positions in the original stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/digraph.h"

namespace krsp::graph {

void write_graph(std::ostream& os, const Digraph& g);
Digraph read_graph(std::istream& is);

void write_graph_file(const std::string& path, const Digraph& g);
Digraph read_graph_file(const std::string& path);

/// Tokenizer for one line of a DIMACS-flavored file. Every failure
/// throws util::CheckError carrying "<context>: line N, column C: why"
/// (context omitted when empty), where the column is 1-based and points
/// at the offending token.
class FieldScanner {
 public:
  FieldScanner(std::string_view line, int line_number,
               std::string_view context = "")
      : line_(line), line_number_(line_number), context_(context) {}

  /// Consumes the one-character line kind ('p', 'a', 'q', ...).
  char kind();
  /// Consumes the next integer token; `what` names it in errors
  /// ("arc cost"). Rejects non-numeric tokens and int64 overflow.
  [[nodiscard]] std::int64_t integer(const char* what);
  /// Same, for a count or id stored as int: rejects values outside int32
  /// instead of wrapping them into a different valid one.
  [[nodiscard]] int int32(const char* what);
  /// Consumes the next whitespace-delimited word.
  [[nodiscard]] std::string word(const char* what);
  /// Requires only whitespace to remain on the line.
  void expect_end();
  [[nodiscard]] bool at_end();

  /// Raises a positioned error at the current scan position — for
  /// semantic failures (out-of-range endpoint, bad tag) discovered after
  /// the token lexed fine.
  [[noreturn]] void error(const std::string& why) const;

 private:
  [[noreturn]] void fail(const std::string& why, std::size_t column) const;
  void skip_spaces();

  std::string_view line_;
  int line_number_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

/// Incremental graph reader: feed lines (with their 1-based numbers in
/// the enclosing stream) and finish(). Accepts 'p' / 'a' / 'c' / blank
/// lines; anything else is a positioned error. Callers layering extra
/// line kinds on the format (core::read_instance) test the kind
/// themselves and route only graph lines here.
class GraphParser {
 public:
  /// `input_bytes` is the size of the whole input: a 'p' line that
  /// declares more vertices than the input has bytes is a positioned
  /// error, raised before the graph is sized, so memory stays
  /// proportional to the input.
  GraphParser(std::string_view context, std::size_t input_bytes)
      : context_(context), input_bytes_(input_bytes) {}

  void consume(std::string_view line, int line_number);
  /// Validates the header was seen and the declared edge count matches;
  /// returns the graph.
  [[nodiscard]] Digraph finish();

 private:
  std::string context_;
  std::size_t input_bytes_;
  Digraph graph_;
  int declared_edges_ = -1;
  bool have_header_ = false;
  int last_line_ = 0;
};

}  // namespace krsp::graph
