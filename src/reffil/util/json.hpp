// Minimal strict JSON parser (RFC 8259).
//
// Exists for two consumers: tools/reffil_prof, which reads the profiler's
// document, and the escaping fuzz tests, which need an
// *unforgiving* validator — any control character, bad escape, trailing
// comma, or invalid UTF-8 that the writer lets through must fail here rather
// than round-trip silently. Strictness is therefore a feature: no comments,
// no NaN/Infinity, no lone surrogates.
//
// The value model is deliberately small: every number is a double (the
// profile's ns totals stay far below 2^53, so they read back exactly).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace reffil::util::json {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at byte " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A parsed JSON value. Accessors throw std::runtime_error on a type
/// mismatch; use is_*() / find() for optional access.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : type_(Type::kNull) {}
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;

  /// find() + number coercion with a default (trace fields are optional).
  double number_or(std::string_view key, double fallback) const;
  /// find() + string with a default.
  std::string string_or(std::string_view key, std::string fallback) const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;    // shared: Values are copied by std::map
  std::shared_ptr<Object> object_;
};

/// Parse one JSON document; the whole input must be consumed (trailing
/// whitespace allowed). Throws ParseError on any violation.
Value parse(std::string_view text);

}  // namespace reffil::util::json
