// failmine/raslog/severity.hpp
//
// RAS event severities. BG/Q RAS events are INFO, WARN or FATAL; only
// FATAL events can kill the jobs running on the affected hardware.

#pragma once

#include <string>
#include <string_view>

namespace failmine::raslog {

enum class Severity {
  kInfo,
  kWarn,
  kFatal,
};

/// "INFO" / "WARN" / "FATAL".
std::string_view severity_token(Severity severity);

/// severity_token as a string.
std::string severity_name(Severity severity);

/// Parses the canonical name (case-insensitive); throws ParseError.
Severity severity_from_name(std::string_view name);

/// All severities in ascending order of seriousness.
inline constexpr Severity kAllSeverities[] = {Severity::kInfo, Severity::kWarn,
                                              Severity::kFatal};

}  // namespace failmine::raslog
