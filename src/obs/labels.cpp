#include "obs/labels.hpp"

#include <algorithm>

namespace failmine::obs {

namespace {

bool label_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

std::string escape_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string unescape_label_value(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 == escaped.size()) {
      out.push_back(escaped[i]);
      continue;
    }
    const char next = escaped[++i];
    out.push_back(next == 'n' ? '\n' : next);
  }
  return out;
}

const std::string* ParsedMetricName::find(std::string_view key) const {
  for (const MetricLabel& label : labels)
    if (label.key == key) return &label.value;
  return nullptr;
}

std::string label_block(std::vector<MetricLabel> labels) {
  if (labels.empty()) return "";
  std::stable_sort(labels.begin(), labels.end(),
                   [](const MetricLabel& a, const MetricLabel& b) {
                     return a.key < b.key;
                   });
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].key + "=\"" + escape_label_value(labels[i].value) + "\"";
  }
  out.push_back('}');
  return out;
}

std::string labeled_name(std::string_view family,
                         std::vector<MetricLabel> labels) {
  return std::string(family) + label_block(std::move(labels));
}

bool parse_metric_name(std::string_view name, ParsedMetricName& out) {
  out.family.clear();
  out.labels.clear();
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    out.family = std::string(name);
    return true;
  }
  out.family = std::string(name.substr(0, brace));
  std::size_t i = brace + 1;
  if (i < name.size() && name[i] == '}')
    return i + 1 == name.size();  // "family{}" == bare family
  while (i < name.size()) {
    MetricLabel label;
    while (i < name.size() && label_key_char(name[i]))
      label.key.push_back(name[i++]);
    if (label.key.empty() || i + 1 >= name.size() || name[i] != '=' ||
        name[i + 1] != '"')
      return false;
    i += 2;
    // Scan the escaped value up to its closing unescaped quote.
    std::string escaped;
    while (i < name.size() && name[i] != '"') {
      if (name[i] == '\\') {
        if (i + 1 >= name.size()) return false;
        escaped.push_back(name[i++]);
      }
      escaped.push_back(name[i++]);
    }
    if (i >= name.size()) return false;  // unterminated value
    ++i;                                 // closing quote
    label.value = unescape_label_value(escaped);
    out.labels.push_back(std::move(label));
    if (i < name.size() && name[i] == ',') {
      ++i;
      continue;
    }
    // The block must close at the very end of the name.
    return i + 1 == name.size() && name[i] == '}';
  }
  return false;
}

}  // namespace failmine::obs
