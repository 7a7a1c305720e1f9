#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace photherm {
namespace {

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
}

TEST(StringUtil, FormatPower) {
  EXPECT_EQ(format_power(3.6e-3), "3.600 mW");
  EXPECT_EQ(format_power(25.0), "25.000 W");
  EXPECT_EQ(format_power(130e-6), "130.000 uW");
  EXPECT_EQ(format_power(5e-9), "5.000 nW");
}

TEST(StringUtil, FormatLength) {
  EXPECT_EQ(format_length(15e-6), "15.000 um");
  EXPECT_EQ(format_length(26.5e-3), "26.500 mm");
  EXPECT_EQ(format_length(1.55e-9), "1.550 nm");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("VCSEL MicroRing"), "vcsel microring");
}

TEST(StringUtil, TrimAndSplitWords) {
  EXPECT_EQ(trim_view(" \t a b \r\n"), "a b");
  EXPECT_EQ(trim_view(" \t\n"), "");
  EXPECT_EQ(trim("  x "), "x");
  EXPECT_EQ(split_words("  warn\t*.wall   0.5 \r"),
            (std::vector<std::string>{"warn", "*.wall", "0.5"}));
  EXPECT_TRUE(split_words(" \t ").empty());
}

TEST(StringUtil, NumbersParseAsWholeTokens) {
  EXPECT_EQ(parse_number(" 2.5 "), 2.5);
  EXPECT_EQ(parse_number("1e3"), 1000.0);
  EXPECT_TRUE(std::isinf(*parse_number("inf")));
  EXPECT_FALSE(parse_number("").has_value());
  EXPECT_FALSE(parse_number("2.5x").has_value());
  EXPECT_FALSE(parse_number("1 2").has_value());

  EXPECT_EQ(parse_double(" -0.25", "x"), -0.25);
  EXPECT_THROW(parse_double("inf", "x"), SpecError);
  EXPECT_THROW(parse_double("1e999", "x"), SpecError);
  try {
    parse_double("  ", "t_ambient");
    ADD_FAILURE() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "empty value for t_ambient");
  }

  EXPECT_EQ(parse_uint("18446744073709551615", "seed"), 18446744073709551615u);
  EXPECT_EQ(parse_uint("255", "n", 255), 255u);
  try {
    parse_uint("256", "n", 255);
    ADD_FAILURE() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "`256` is out of range for n (at most 255)");
  }
}

}  // namespace
}  // namespace photherm
