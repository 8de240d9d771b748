#include "raslog/category.hpp"
#include "raslog/component.hpp"
#include "raslog/severity.hpp"
#include "util/error.hpp"

namespace failmine::raslog {

// The parsers and the CSV writer run once per RAS row, so they work on the
// string_view tokens and allocate nothing on the accepting path.

namespace {

/// ASCII case-insensitive compare against a lower-case constant.
bool equals_lower(std::string_view name, std::string_view lower) {
  if (name.size() != lower.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const char folded =
        c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    if (folded != lower[i]) return false;
  }
  return true;
}

/// Exact token compare that rejects on length and first byte before
/// comparing the whole token (tokens are never empty).
bool token_equals(std::string_view token, std::string_view name) {
  return token.size() == name.size() && token[0] == name[0] && token == name;
}

}  // namespace

std::string_view severity_token(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "INFO";
    case Severity::kWarn: return "WARN";
    case Severity::kFatal: return "FATAL";
  }
  throw failmine::DomainError("unknown severity");
}

std::string_view component_token(Component component) {
  switch (component) {
    case Component::kCnk: return "CNK";
    case Component::kMmcs: return "MMCS";
    case Component::kMc: return "MC";
    case Component::kBqc: return "BQC";
    case Component::kDdr: return "DDR";
    case Component::kNd: return "ND";
    case Component::kMudm: return "MUDM";
    case Component::kPci: return "PCI";
    case Component::kCard: return "CARD";
    case Component::kFirmware: return "FIRMWARE";
    case Component::kLinux: return "LINUX";
    case Component::kGpfs: return "GPFS";
    case Component::kCoolant: return "COOLANT";
    case Component::kBulkPower: return "BULKPOWER";
  }
  throw failmine::DomainError("unknown component");
}

std::string_view category_token(Category category) {
  switch (category) {
    case Category::kMemory: return "MEMORY";
    case Category::kProcessor: return "PROCESSOR";
    case Category::kNetwork: return "NETWORK";
    case Category::kIo: return "IO";
    case Category::kSoftware: return "SOFTWARE";
    case Category::kPower: return "POWER";
    case Category::kCooling: return "COOLING";
    case Category::kControl: return "CONTROL";
  }
  throw failmine::DomainError("unknown category");
}

std::string severity_name(Severity severity) {
  return std::string(severity_token(severity));
}

Severity severity_from_name(std::string_view name) {
  if (equals_lower(name, "info")) return Severity::kInfo;
  if (equals_lower(name, "warn") || equals_lower(name, "warning"))
    return Severity::kWarn;
  if (equals_lower(name, "fatal")) return Severity::kFatal;
  throw failmine::ParseError("unknown severity: '" + std::string(name) + "'");
}

std::string component_name(Component component) {
  return std::string(component_token(component));
}

Component component_from_name(std::string_view name) {
  for (Component c : kAllComponents)
    if (token_equals(component_token(c), name)) return c;
  throw failmine::ParseError("unknown component: '" + std::string(name) + "'");
}

std::string category_name(Category category) {
  return std::string(category_token(category));
}

Category category_from_name(std::string_view name) {
  for (Category c : kAllCategories)
    if (token_equals(category_token(c), name)) return c;
  throw failmine::ParseError("unknown category: '" + std::string(name) + "'");
}

}  // namespace failmine::raslog
