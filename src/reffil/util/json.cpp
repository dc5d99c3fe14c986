#include "reffil/util/json.hpp"

#include <cmath>
#include <cstdlib>

namespace reffil::util::json {

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return *array_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_->find(std::string(key));
  return it == object_->end() ? nullptr : &it->second;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) { throw ParseError(what, pos_); }

  bool eof() const { return pos_ >= text_.size(); }
  unsigned char peek() const { return static_cast<unsigned char>(text_[pos_]); }

  void skip_ws() {
    while (!eof()) {
      const unsigned char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    Value v = [&] {
      switch (peek()) {
        case '{': return parse_object();
        case '[': return parse_array();
        case '"': return Value(parse_string());
        case 't':
          if (!consume_literal("true")) fail("bad literal");
          return Value(true);
        case 'f':
          if (!consume_literal("false")) fail("bad literal");
          return Value(false);
        case 'n':
          if (!consume_literal("null")) fail("bad literal");
          return Value();
        default: return parse_number();
      }
    }();
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(obj));
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(arr));
    }
  }

  // RFC 8259 §7: raw control characters are forbidden inside strings, every
  // escape must be one of the eight shorthands or \uXXXX, and surrogate
  // halves must pair. The decoded string is re-encoded as UTF-8.
  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const unsigned char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': append_unicode_escape(out); break;
          default: fail("bad escape");
        }
      } else if (c < 0x20) {
        fail("raw control character in string");
      } else if (c < 0x80) {
        out += static_cast<char>(c);
      } else {
        // Validate the multi-byte sequence; the writer contract is that
        // only well-formed UTF-8 reaches a trace file.
        --pos_;
        append_utf8_sequence(out);
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return v;
  }

  void append_unicode_escape(std::string& out) {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const std::uint32_t lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    append_codepoint(out, cp);
  }

  static void append_codepoint(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  void append_utf8_sequence(std::string& out) {
    const unsigned char lead = peek();
    std::size_t len = 0;
    std::uint32_t cp = 0;
    if (lead >= 0xC2 && lead <= 0xDF) {
      len = 2;
      cp = lead & 0x1Fu;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      len = 3;
      cp = lead & 0x0Fu;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      len = 4;
      cp = lead & 0x07u;
    } else {
      fail("invalid UTF-8 lead byte");
    }
    if (pos_ + len > text_.size()) fail("truncated UTF-8 sequence");
    for (std::size_t i = 1; i < len; ++i) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_ + i]);
      if ((c & 0xC0) != 0x80) fail("invalid UTF-8 continuation");
      cp = (cp << 6) | (c & 0x3Fu);
    }
    const bool overlong = (len == 2 && cp < 0x80) ||
                          (len == 3 && cp < 0x800) ||
                          (len == 4 && cp < 0x10000);
    if (overlong || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      fail("invalid UTF-8 codepoint");
    }
    out.append(text_.substr(pos_, len));
    pos_ += len;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("bad number");
    if (peek() == '0') {
      ++pos_;  // leading zeros are forbidden: 0 must stand alone
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("bad fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("bad exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) fail("number out of range");
    return Value(v);
  }

  static constexpr int kMaxDepth = 256;  // bound recursion on hostile input

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace reffil::util::json
