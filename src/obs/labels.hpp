// failmine/obs/labels.hpp
//
// First-class label dimension over the label-unaware registry.
//
// The registry keys instruments by flat name; labels live in the name
// itself as a canonical inline block (`family{key="value",...}`). This
// header owns that spelling: escaping (the Prometheus rules — `\\`,
// `\"`, `\n`), the canonical renderer (keys sorted, values escaped) and
// the escape-aware parser every label-aware consumer (exposition
// renderer, tsdb, query engine, alert engine) shares. A name without a
// label block parses as a bare family with no labels, so legacy
// spellings like `stream.records_in` and labeled fleet spellings like
// `stream.records_in{twin="t3"}` flow through the same code paths.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace failmine::obs {

/// Escapes a raw label value for the inline spelling / the exposition:
/// `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
std::string escape_label_value(std::string_view raw);

/// Inverse of escape_label_value(). Lenient: an unrecognized escape
/// (`\x`) decodes to the bare `x`.
std::string unescape_label_value(std::string_view escaped);

/// A metric name decomposed into its family and decoded labels.
struct ParsedMetricName {
  std::string family;
  std::vector<MetricLabel> labels;  ///< decoded values, canonical order

  /// Value of the label named `key`, or nullptr when absent.
  const std::string* find(std::string_view key) const;
};

/// Canonical inline spelling: `family{k="v",...}` with keys sorted and
/// values escaped; an empty label set renders the bare family.
std::string labeled_name(std::string_view family,
                         std::vector<MetricLabel> labels);

/// Renders just the `{...}` block of labeled_name() (or "" when empty).
std::string label_block(std::vector<MetricLabel> labels);

/// Parses `name` into family + labels. A name without a `{` is a bare
/// family (returns true, empty labels). Returns false when a label
/// block is present but malformed (unterminated value, missing `=`,
/// trailing garbage); callers treat such names as opaque families.
bool parse_metric_name(std::string_view name, ParsedMetricName& out);

}  // namespace failmine::obs
