#include "server/wire.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace krsp::server::wire {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void fail(const std::string& what) {
    if (error.empty())
      error = what + " at offset " + std::to_string(pos);
  }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool expect(char c, const char* ctx) {
    if (consume(c)) return true;
    fail(std::string("expected '") + c + "' in " + ctx);
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(std::uint32_t* out) {
    if (pos + 4 > text.size()) {
      fail("truncated \\u escape");
      return false;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else {
        fail("bad hex digit in \\u escape");
        return false;
      }
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!expect('"', "string")) return false;
    out->clear();
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return false;
      }
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string");
          return false;
        }
        out->push_back(c);
        continue;
      }
      if (at_end()) {
        fail("truncated escape");
        return false;
      }
      const char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(&cp)) return false;
          // Surrogate pair (rare in practice here, handled for correctness).
          if (cp >= 0xD800 && cp <= 0xDBFF && pos + 1 < text.size() &&
              text[pos] == '\\' && text[pos + 1] == 'u') {
            pos += 2;
            std::uint32_t lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            else {
              fail("unpaired surrogate");
              return false;
            }
          }
          append_utf8(*out, cp);
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
  }

  /// Consumes a digit run, returning how many digits there were.
  std::size_t digits() {
    std::size_t count = 0;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos;
      ++count;
    }
    return count;
  }

  bool parse_number(Value* out) {
    const std::size_t start = pos;
    if (consume('-')) {}
    const bool int_digits = digits() > 0;
    bool integral = true;
    bool fraction_ok = true;
    if (consume('.')) {
      integral = false;
      fraction_ok = digits() > 0;
    }
    bool exponent_ok = true;
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      exponent_ok = digits() > 0;
    }
    const std::string_view lit = text.substr(start, pos - start);
    // JSON grammar: digits before any '.', after any '.', after any 'e'.
    if (!int_digits || !fraction_ok || !exponent_ok) {
      fail("malformed number");
      return false;
    }
    out->type = Value::Type::kNumber;
    if (integral) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(lit.data(), lit.data() + lit.size(), v);
      if (ec == std::errc() && ptr == lit.data() + lit.size()) {
        out->integer = v;
        out->is_integer = true;
        out->number = static_cast<double>(v);
        return true;
      }
      // Integer literal out of int64 range: fall through to double.
    }
    const std::string owned(lit);
    out->number = std::strtod(owned.c_str(), nullptr);
    out->is_integer = false;
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = peek();
    if (c == '{') {
      ++pos;
      out->type = Value::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string k;
        if (!parse_string(&k)) return false;
        skip_ws();
        if (!expect(':', "object")) return false;
        Value v;
        if (!parse_value(&v, depth + 1)) return false;
        out->members.emplace_back(std::move(k), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        return expect('}', "object");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = Value::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        Value v;
        if (!parse_value(&v, depth + 1)) return false;
        out->items.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        return expect(']', "array");
      }
    }
    if (c == '"') {
      out->type = Value::Type::kString;
      return parse_string(&out->string);
    }
    if (literal("true")) {
      out->type = Value::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->type = Value::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (literal("null")) {
      out->type = Value::Type::kNull;
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace

const Value* Value::find(std::string_view k) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members)
    if (name == k) return &value;
  return nullptr;
}

std::string Value::get_string(std::string_view k, std::string_view def) const {
  const Value* v = find(k);
  return v != nullptr && v->type == Type::kString ? v->string
                                                  : std::string(def);
}

double Value::get_number(std::string_view k, double def) const {
  const Value* v = find(k);
  return v != nullptr && v->type == Type::kNumber ? v->number : def;
}

std::int64_t Value::get_int(std::string_view k, std::int64_t def) const {
  const Value* v = find(k);
  return v != nullptr && v->type == Type::kNumber && v->is_integer ? v->integer
                                                                   : def;
}

bool Value::get_bool(std::string_view k, bool def) const {
  const Value* v = find(k);
  return v != nullptr && v->type == Type::kBool ? v->boolean : def;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p;
  p.text = text;
  Value root;
  if (!p.parse_value(&root, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error != nullptr)
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return root;
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void ObjectWriter::key(std::string_view k) {
  if (!first_) out_.push_back(',');
  first_ = false;
  out_ += quoted(k);
  out_.push_back(':');
}

ObjectWriter& ObjectWriter::field(std::string_view k, std::string_view v) {
  key(k);
  out_ += quoted(v);
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view k, const char* v) {
  return field(k, std::string_view(v));
}

ObjectWriter& ObjectWriter::field(std::string_view k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view k, std::int64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view k, std::uint64_t v) {
  key(k);
  out_ += std::to_string(v);
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view k, double v) {
  key(k);
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
  } else {
    out_ += "null";  // JSON has no inf/nan
  }
  return *this;
}

ObjectWriter& ObjectWriter::raw(std::string_view k, std::string_view json) {
  key(k);
  out_ += json;
  return *this;
}

std::string ObjectWriter::done() {
  out_.push_back('}');
  return std::move(out_);
}

}  // namespace krsp::server::wire
