// Unit tests for util/strings.

#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace failmine::util {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Strings, TrimStripsExactlyTheCLocaleSpaces) {
  // trim tests bytes itself; it must agree with std::isspace in the "C"
  // locale on every byte value.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string padded = std::string(1, c) + "x" + std::string(1, c);
    const std::string_view expected = std::isspace(b) != 0
                                          ? std::string_view("x")
                                          : std::string_view(padded);
    EXPECT_EQ(trim(padded), expected) << "byte " << b;
  }
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("FaTaL"), "fatal");
  EXPECT_EQ(to_lower("123-XYZ"), "123-xyz");
}

TEST(Strings, ParseIntAcceptsSignedValues) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-17"), -17);
  EXPECT_EQ(parse_int("  8 "), 8);
}

TEST(Strings, ParseIntRejectsJunk) {
  EXPECT_THROW(parse_int(""), ParseError);
  EXPECT_THROW(parse_int("12x"), ParseError);
  EXPECT_THROW(parse_int("1.5"), ParseError);
}

TEST(Strings, ParseUintRejectsNegative) {
  EXPECT_EQ(parse_uint("99"), 99u);
  EXPECT_THROW(parse_uint("-1"), ParseError);
  EXPECT_THROW(parse_uint("abc"), ParseError);
}

TEST(Strings, ThirtyTwoBitParsersRejectOutOfRange) {
  EXPECT_EQ(parse_u32("4294967295"), UINT32_MAX);
  EXPECT_THROW(parse_u32("4294967296"), failmine::ParseError);
  EXPECT_THROW(parse_u32("-1"), failmine::ParseError);
  EXPECT_EQ(parse_i32("2147483647"), INT32_MAX);
  EXPECT_EQ(parse_i32("-2147483648"), INT32_MIN);
  EXPECT_THROW(parse_i32("2147483648"), failmine::ParseError);
  EXPECT_THROW(parse_i32("-2147483649"), failmine::ParseError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("1.2.3"), ParseError);
}

TEST(Strings, FormatDoublePrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// printf leaves the spelling of infinities and NaN to the C library
// ("inf" or "infinity", "nan" or "-nan"); format_double spells them
// itself, in both styles.
TEST(Strings, FormatDoubleSpellsNonFiniteValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const FloatStyle style : {FloatStyle::kFixed, FloatStyle::kScientific}) {
    EXPECT_EQ(format_double(kInf, 1, style), "inf");
    EXPECT_EQ(format_double(-kInf, 1, style), "-inf");
    EXPECT_EQ(format_double(nan, 1, style), "n/a");
    EXPECT_EQ(format_double(-nan, 1, style), "n/a");
  }
  EXPECT_EQ(format_double(12345.678, 3, FloatStyle::kScientific), "1.235e+04");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("R00-M1", "R00"));
  EXPECT_FALSE(starts_with("R0", "R00"));
  EXPECT_TRUE(starts_with("anything", ""));
}

}  // namespace
}  // namespace failmine::util
