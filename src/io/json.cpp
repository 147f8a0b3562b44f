#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace fpr::io {
namespace {

constexpr int kMaxDepth = 256;  ///< parser recursion bound

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through verbatim
        }
    }
  }
  out += '"';
  return out;
}

void write_double(std::string& out, double d) {
  if (std::isnan(d)) {
    out += "\"NaN\"";
    return;
  }
  if (std::isinf(d)) {
    out += d > 0 ? "\"Infinity\"" : "\"-Infinity\"";
    return;
  }
  // Shortest representation that round-trips exactly (to_chars default).
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  out.append(buf, res.ptr);
}

template <typename Int>
void write_int(std::string& out, Int v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void write_value(std::string& out, const Json& v, int indent);

void write_indent(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

void write_array(std::string& out, const Json::Array& a, int indent) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out += "[\n";
  for (std::size_t i = 0; i < a.size(); ++i) {
    write_indent(out, indent + 1);
    write_value(out, a[i], indent + 1);
    if (i + 1 < a.size()) out += ',';
    out += '\n';
  }
  write_indent(out, indent);
  out += ']';
}

void write_object(std::string& out, const Json::Object& o, int indent) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  for (std::size_t i = 0; i < o.size(); ++i) {
    write_indent(out, indent + 1);
    out += quoted(o[i].first);
    out += ": ";
    write_value(out, o[i].second, indent + 1);
    if (i + 1 < o.size()) out += ',';
    out += '\n';
  }
  write_indent(out, indent);
  out += '}';
}

}  // namespace

const char* Json::type_name() const {
  switch (v_.index()) {
    case 0: return "null";
    case 1: return "bool";
    case 2:
    case 3:
    case 4: return "number";
    case 5: return "string";
    case 6: return "array";
    default: return "object";
  }
}

void Json::type_error(const char* wanted) const {
  throw JsonError(std::string("expected ") + wanted + ", have " +
                  type_name());
}

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  type_error("bool");
}

double Json::as_number() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) {
    return static_cast<double>(*u);
  }
  if (const auto* s = std::get_if<std::string>(&v_)) {
    if (*s == "NaN") return std::numeric_limits<double>::quiet_NaN();
    if (*s == "Infinity") return std::numeric_limits<double>::infinity();
    if (*s == "-Infinity") return -std::numeric_limits<double>::infinity();
  }
  type_error("number");
}

std::uint64_t Json::as_u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    if (*i < 0) throw JsonError("expected unsigned, have negative number");
    return static_cast<std::uint64_t>(*i);
  }
  if (const auto* d = std::get_if<double>(&v_)) {
    if (*d < 0 || *d != std::floor(*d) || *d > 9007199254740992.0) {
      throw JsonError("number is not an exact unsigned integer");
    }
    return static_cast<std::uint64_t>(*d);
  }
  type_error("number");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  type_error("string");
}

const Json::Array& Json::as_array() const {
  if (const auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("array");
}

Json::Array& Json::as_array() {
  if (auto* a = std::get_if<Array>(&v_)) return *a;
  type_error("array");
}

const Json::Object& Json::as_object() const {
  if (const auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("object");
}

Json::Object& Json::as_object() {
  if (auto* o = std::get_if<Object>(&v_)) return *o;
  type_error("object");
}

Json& Json::set(std::string key, Json value) {
  auto& obj = as_object();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* v = find(key)) return *v;
  throw JsonError("missing key \"" + std::string(key) + "\"");
}

Json& Json::push(Json value) {
  as_array().push_back(std::move(value));
  return *this;
}

namespace {

void write_value(std::string& out, const Json& v, int indent) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_i64()) {
    write_int(out, v.raw_i64());
  } else if (v.is_u64()) {
    write_int(out, v.raw_u64());
  } else if (v.is_double()) {
    write_double(out, v.raw_double());
  } else if (v.is_string()) {
    out += quoted(v.as_string());
  } else if (v.is_array()) {
    write_array(out, v.as_array(), indent);
  } else {
    write_object(out, v.as_object(), indent);
  }
}

}  // namespace

std::string dump(const Json& v) {
  std::string out;
  write_value(out, v, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view with offset tracking.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("JSON parse error at " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') return obj;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return arr;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (take() != '\\' || take() != 'u') {
              --pos_;
              fail("unpaired surrogate in \\u escape");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xdc00 || lo > 0xdfff) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();

    const bool integral =
        tok.find('.') == std::string_view::npos &&
        tok.find('e') == std::string_view::npos &&
        tok.find('E') == std::string_view::npos;
    if (integral) {
      if (tok[0] == '-') {
        std::int64_t i = 0;
        const auto r = std::from_chars(first, last, i);
        // "-0" stays a double so the sign of -0.0 survives round-trips.
        if (r.ec == std::errc() && r.ptr == last && i != 0) return Json(i);
      } else {
        std::uint64_t u = 0;
        const auto r = std::from_chars(first, last, u);
        if (r.ec == std::errc() && r.ptr == last) return Json(u);
      }
      // Out of 64-bit range: fall through to double.
    }
    double d = 0.0;
    const auto r = std::from_chars(first, last, d);
    if (r.ec != std::errc() || r.ptr != last) {
      pos_ = start;
      fail("invalid number '" + std::string(tok) + "'");
    }
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse(std::string_view text) { return Parser(text).parse_document(); }

Json load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) throw JsonError("read failure on " + path);
  return parse(ss.str());
}

void save_file(const std::string& path, const Json& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw JsonError("cannot open " + path + " for writing");
  out << dump(v) << '\n';
  out.flush();
  if (!out.good()) throw JsonError("write failure on " + path);
}

}  // namespace fpr::io
