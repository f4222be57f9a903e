// obs/json.hpp parser edge cases: the exporters' round-trip safety net
// must accept everything they can legally emit (escapes, nesting, numeric
// forms) and reject what they never should (truncated documents, trailing
// garbage, bad escapes) with an error instead of a garbage value.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace grasp::obs {
namespace {

TEST(ObsJson, StringEscapesRoundTrip) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  std::string doc = "\"";
  doc += json_escape(raw);
  doc += '"';
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->as_string(), raw);
}

TEST(ObsJson, UnicodeEscapesDecodeToUtf8) {
  const auto parsed = parse_json(R"("\u0041\u00e9\u20ac")");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "A\xc3\xa9\xe2\x82\xac");  // A é €
}

TEST(ObsJson, DeeplyNestedStructuresParse) {
  std::string doc = "{\"k\": [1, {\"inner\": [true, null, ";
  doc += R"({"leaf": "v"}]}, -2.5e3]})";
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* k = parsed->find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_TRUE(k->is_array());
  ASSERT_EQ(k->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(k->as_array()[0].as_number(), 1.0);
  const JsonValue* inner = k->as_array()[1].find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->as_array().size(), 3u);
  EXPECT_TRUE(inner->as_array()[0].as_bool());
  EXPECT_TRUE(inner->as_array()[1].is_null());
  const JsonValue* leaf = inner->as_array()[2].find("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->as_string(), "v");
  EXPECT_DOUBLE_EQ(k->as_array()[2].as_number(), -2500.0);
}

TEST(ObsJson, NumericForms) {
  for (const auto& [text, want] :
       {std::pair<const char*, double>{"0", 0.0},
        {"-0.5", -0.5},
        {"1e-3", 1e-3},
        {"2.25E+2", 225.0},
        {"123456789", 123456789.0}}) {
    const auto parsed = parse_json(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_DOUBLE_EQ(parsed->as_number(), want) << text;
  }
}

TEST(ObsJson, MalformedDocumentsAreRejectedWithError) {
  for (const char* bad :
       {"", "{", "[1, 2", "{\"a\": }", "\"unterminated", "{\"a\" 1}",
        "[1,]", "tru", "1 2", "{\"a\": 1} trailing", "\"bad\\qescape\"",
        "\"\\u12\""}) {
    std::string error;
    const auto parsed = parse_json(bad, &error);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << "no error message for: " << bad;
  }
}

TEST(ObsJson, FindOnNonObjectIsNull) {
  const auto parsed = parse_json("[1, 2]");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("k"), nullptr);
  const auto obj = parse_json("{\"k\": 1}");
  EXPECT_EQ(obj->find("missing"), nullptr);
}

}  // namespace
}  // namespace grasp::obs
