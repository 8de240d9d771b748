// failmine/util/strings.hpp
//
// Small string helpers used across the log parsers.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace failmine::util {

/// Removes leading and trailing ASCII whitespace (the "C"-locale
/// isspace set: space, \t, \n, \v, \f, \r).
std::string_view trim(std::string_view s);

/// ASCII lower-casing.
std::string to_lower(std::string_view s);

/// Parses a signed 64-bit integer; throws ParseError on junk.
std::int64_t parse_int(std::string_view s);

/// Parses an unsigned 64-bit integer; throws ParseError on junk or sign.
std::uint64_t parse_uint(std::string_view s);

/// parse_int / parse_uint narrowed to 32 bits: a value outside the
/// int32 / uint32 range throws ParseError instead of wrapping.
std::int32_t parse_i32(std::string_view s);
std::uint32_t parse_u32(std::string_view s);

/// Parses a double; throws ParseError on junk.
double parse_double(std::string_view s);

/// How format_double spells a finite value.
enum class FloatStyle {
  kFixed,       ///< printf's "%.*f"
  kScientific,  ///< printf's "%.*e"
};

/// Formats a double with `precision` digits after the point, as printf
/// does in the "C" locale (no locale surprises). The spelling of the
/// non-finite values C leaves to the library, so they are spelled here:
/// "inf", "-inf", and "n/a" for NaN.
std::string format_double(double v, int precision = 6,
                          FloatStyle style = FloatStyle::kFixed);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

}  // namespace failmine::util
