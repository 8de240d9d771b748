#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "util/error.hpp"

namespace failmine::util {

namespace {

// std::isspace in the "C" locale, without the locale lookup per byte.
bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::int64_t parse_int(std::string_view s) {
  s = trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("not an integer: '" + std::string(s) + "'");
  return value;
}

std::uint64_t parse_uint(std::string_view s) {
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size())
    throw ParseError("not an unsigned integer: '" + std::string(s) + "'");
  return value;
}

std::int32_t parse_i32(std::string_view s) {
  const std::int64_t value = parse_int(s);
  if (value < INT32_MIN || value > INT32_MAX)
    throw ParseError("integer out of 32-bit range: '" +
                     std::string(trim(s)) + "'");
  return static_cast<std::int32_t>(value);
}

std::uint32_t parse_u32(std::string_view s) {
  const std::uint64_t value = parse_uint(s);
  if (value > UINT32_MAX)
    throw ParseError("unsigned integer out of 32-bit range: '" +
                     std::string(trim(s)) + "'");
  return static_cast<std::uint32_t>(value);
}

double parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw ParseError("empty numeric field");
  // std::from_chars<double> is not universally available; strtod on a
  // bounded copy is portable and still validates the whole field.
  std::string copy(s);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size())
    throw ParseError("not a number: '" + copy + "'");
  return value;
}

std::string format_double(double v, int precision, FloatStyle style) {
  if (std::isnan(v)) return "n/a";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  const char* const format = style == FloatStyle::kFixed ? "%.*f" : "%.*e";
  std::string out(
      static_cast<std::size_t>(std::snprintf(nullptr, 0, format, precision, v)),
      '\0');
  std::snprintf(out.data(), out.size() + 1, format, precision, v);
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace failmine::util
