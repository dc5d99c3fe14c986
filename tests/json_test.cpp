// Unit tests for the strict RFC 8259 parser (util/json.hpp). The parser's
// job is to be unforgiving — it backstops the trace writer's escaping, so
// every reject case here is a class of corruption the fuzz test relies on
// it catching.
#include <gtest/gtest.h>

#include <string>

#include "reffil/util/json.hpp"

namespace json = reffil::util::json;

TEST(Json, ParsesLiteralsAndNumbers) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(json::parse("-0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("2.5E-2").as_number(), 0.025);
  EXPECT_DOUBLE_EQ(json::parse("  7 \n").as_number(), 7.0);
}

TEST(Json, ParsesContainers) {
  const auto v = json::parse(
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\",\"d\":{},\"e\":[]}");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(a[2].find("b")->is_null());
  EXPECT_EQ(v.string_or("c", ""), "x");
  EXPECT_TRUE(v.find("d")->is_object());
  EXPECT_TRUE(v.find("e")->as_array().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
}

TEST(Json, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(json::parse("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(json::parse("\"\\u0041\\u00e9\\u4e16\"").as_string(),
            "A\xC3\xA9\xE4\xB8\x96");
  // U+1F600 as a surrogate pair decodes to 4-byte UTF-8.
  EXPECT_EQ(json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Raw well-formed UTF-8 passes through byte-identical.
  EXPECT_EQ(json::parse("\"h\xC3\xA9llo \xE2\x9C\x93\"").as_string(),
            "h\xC3\xA9llo \xE2\x9C\x93");
}

TEST(Json, RejectsStructuralViolations) {
  EXPECT_THROW(json::parse(""), json::ParseError);
  EXPECT_THROW(json::parse("   "), json::ParseError);
  EXPECT_THROW(json::parse("{} extra"), json::ParseError);
  EXPECT_THROW(json::parse("[1,2,]"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\" 1}"), json::ParseError);
  EXPECT_THROW(json::parse("{a:1}"), json::ParseError);
  EXPECT_THROW(json::parse("[1 2]"), json::ParseError);
  EXPECT_THROW(json::parse("[1"), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\":"), json::ParseError);
  EXPECT_THROW(json::parse("// comment\n1"), json::ParseError);
  EXPECT_THROW(json::parse("tru"), json::ParseError);
}

TEST(Json, RejectsBadNumbers) {
  EXPECT_THROW(json::parse("01"), json::ParseError);
  EXPECT_THROW(json::parse("+1"), json::ParseError);
  EXPECT_THROW(json::parse("1."), json::ParseError);
  EXPECT_THROW(json::parse(".5"), json::ParseError);
  EXPECT_THROW(json::parse("-"), json::ParseError);
  EXPECT_THROW(json::parse("1e"), json::ParseError);
  EXPECT_THROW(json::parse("1e+"), json::ParseError);
  EXPECT_THROW(json::parse("NaN"), json::ParseError);
  EXPECT_THROW(json::parse("Infinity"), json::ParseError);
  EXPECT_THROW(json::parse("1e999"), json::ParseError);  // overflows double
}

TEST(Json, RejectsBadStrings) {
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("\"raw\ncontrol\""), json::ParseError);
  EXPECT_THROW(json::parse(std::string("\"nul\0byte\"", 10)),
               json::ParseError);
  EXPECT_THROW(json::parse("\"bad\\xescape\""), json::ParseError);
  EXPECT_THROW(json::parse("\"\\u12G4\""), json::ParseError);
  EXPECT_THROW(json::parse("\"\\u123\""), json::ParseError);
  EXPECT_THROW(json::parse("\"\\ud800\""), json::ParseError);  // lone high
  EXPECT_THROW(json::parse("\"\\udc00\""), json::ParseError);  // lone low
  EXPECT_THROW(json::parse("\"\\ud800\\u0041\""), json::ParseError);
}

TEST(Json, RejectsInvalidUtf8) {
  EXPECT_THROW(json::parse("\"\xFF\""), json::ParseError);       // bare 0xFF
  EXPECT_THROW(json::parse("\"\x80\""), json::ParseError);       // stray cont
  EXPECT_THROW(json::parse("\"\xC3\""), json::ParseError);       // truncated
  EXPECT_THROW(json::parse("\"\xC3(\""), json::ParseError);      // bad cont
  EXPECT_THROW(json::parse("\"\xC0\xAF\""), json::ParseError);   // overlong /
  EXPECT_THROW(json::parse("\"\xE0\x80\xAF\""), json::ParseError);
  EXPECT_THROW(json::parse("\"\xED\xA0\x80\""), json::ParseError);  // surrogate
  EXPECT_THROW(json::parse("\"\xF4\x90\x80\x80\""), json::ParseError);
}

TEST(Json, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += '[';
  for (int i = 0; i < 300; ++i) deep += ']';
  EXPECT_THROW(json::parse(deep), json::ParseError);
  // A depth well inside the bound parses fine.
  std::string ok;
  for (int i = 0; i < 100; ++i) ok += '[';
  ok += "1";
  for (int i = 0; i < 100; ++i) ok += ']';
  EXPECT_NO_THROW(json::parse(ok));
}

TEST(Json, ParseErrorCarriesByteOffset) {
  try {
    json::parse("[1, x]");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  const auto v = json::parse("{\"n\":1}");
  EXPECT_THROW(v.as_array(), std::runtime_error);
  EXPECT_THROW(v.find("n")->as_string(), std::runtime_error);
  EXPECT_DOUBLE_EQ(v.number_or("n", 0.0), 1.0);
  EXPECT_EQ(v.string_or("n", "fallback"), "fallback");  // wrong type
}
