// Minimal JSON reader/writer for the serving wire protocol.
//
// The protocol (server/transport.h) frames one JSON object per line, so
// this is deliberately a small, dependency-free implementation: a
// recursive-descent parser into a dynamic Value tree, plus an ObjectWriter
// that appends correctly-escaped fields to a flat string. Integers are
// kept exact (int64) whenever the literal has no fraction/exponent —
// costs, delays and edge ids must round-trip bit-exactly for the
// loadgen's identity check to be meaningful.
//
// Not a general-purpose JSON library on purpose: no comments, no
// trailing commas, UTF-8 passthrough with \uXXXX decoding, nesting depth
// capped (hostile input gets an error, not a stack overflow).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace krsp::server::wire {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;        // always set for kNumber
  std::int64_t integer = 0;   // exact value when is_integer
  bool is_integer = false;
  std::string string;
  std::vector<Value> items;                             // kArray
  std::vector<std::pair<std::string, Value>> members;   // kObject, in order

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Typed convenience getters on objects, with defaults for absent or
  // mistyped members.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view def = "") const;
  [[nodiscard]] double get_number(std::string_view key, double def) const;
  /// Only an integer literal within int64 counts; a fraction, an exponent
  /// or a number past int64 is mistyped (returns `def`).
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t def) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool def) const;
};

/// Parses one JSON document (object, array, or scalar). On failure returns
/// nullopt and, if `error` is non-null, a position-annotated message.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// JSON string literal: quotes + escapes (control chars, ", \).
[[nodiscard]] std::string quoted(std::string_view s);

/// Builder for one flat JSON object; nested values go in pre-serialized
/// via raw(). Field order is emission order (stable, test-friendly).
class ObjectWriter {
 public:
  ObjectWriter& field(std::string_view key, std::string_view value);
  ObjectWriter& field(std::string_view key, const char* value);
  ObjectWriter& field(std::string_view key, bool value);
  ObjectWriter& field(std::string_view key, std::int64_t value);
  ObjectWriter& field(std::string_view key, std::uint64_t value);
  ObjectWriter& field(std::string_view key, double value);
  /// Pre-serialized JSON (array, object) emitted verbatim.
  ObjectWriter& raw(std::string_view key, std::string_view json);

  /// Finishes and returns the object; the writer is spent afterwards.
  [[nodiscard]] std::string done();

 private:
  void key(std::string_view k);
  std::string out_ = "{";
  bool first_ = true;
};

}  // namespace krsp::server::wire
