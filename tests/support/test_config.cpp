#include "support/config.hpp"

#include <gtest/gtest.h>

namespace grasp {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Config, ParsesKeysCommentsAndBlanks) {
  const Config cfg = Config::parse(
      "# leading comment\n"
      "nodes = 32\n"
      "\n"
      "name = my experiment  # trailing comment\n"
      "ratio=1.5\n");
  EXPECT_EQ(cfg.get_int("nodes", 0), 32);
  EXPECT_EQ(cfg.get_string("name", ""), "my experiment");
  EXPECT_DOUBLE_EQ(cfg.get_double("ratio", 0.0), 1.5);
}

TEST(Config, LaterKeysOverride) {
  const Config cfg = Config::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a", 0), 2);
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg = Config::parse("present = 1\n");
  EXPECT_EQ(cfg.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("absent", 2.5), 2.5);
  EXPECT_EQ(cfg.get_string("absent", "dflt"), "dflt");
  EXPECT_TRUE(cfg.get_bool("absent", true));
  EXPECT_FALSE(cfg.get(std::string("absent")).has_value());
}

TEST(Config, BooleanSpellings) {
  const Config cfg = Config::parse(
      "a = true\nb = YES\nc = 0\nd = off\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_TRUE(cfg.get_bool("b", false));
  EXPECT_FALSE(cfg.get_bool("c", true));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, TypeErrorsThrow) {
  const Config cfg = Config::parse("n = abc\nf = 1.2.3\nb = maybe\n");
  EXPECT_THROW((void)cfg.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)cfg.get_double("f", 0.0), std::runtime_error);
  EXPECT_THROW((void)cfg.get_bool("b", false), std::runtime_error);
}

TEST(Config, CountsRejectNegativesAndKeepZeroAndLargeValues) {
  const Config cfg = Config::parse(
      "neg = -1\nzero = 0\nbig = 9223372036854775807\ntoo_big = "
      "9223372036854775808\n");
  EXPECT_THROW((void)cfg.get_count("neg", 5), std::runtime_error);
  EXPECT_EQ(cfg.get_count("zero", 5), 0u);
  EXPECT_EQ(cfg.get_count("big", 5), std::size_t{9223372036854775807u});
  EXPECT_THROW((void)cfg.get_count("too_big", 5), std::runtime_error);
  EXPECT_EQ(cfg.get_count("absent", 5), 5u);
}

TEST(Config, MalformedLinesThrow) {
  EXPECT_THROW(Config::parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("= value\n"), std::runtime_error);
}

TEST(Config, OverridesFromTokens) {
  Config cfg = Config::parse("a = 1\n");
  cfg.override_with({"a=5", "b=hello"});
  EXPECT_EQ(cfg.get_int("a", 0), 5);
  EXPECT_EQ(cfg.get_string("b", ""), "hello");
  EXPECT_THROW(cfg.override_with({"not-an-assignment"}), std::runtime_error);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW(Config::load("/no/such/file.cfg"), std::runtime_error);
}

}  // namespace
}  // namespace grasp
