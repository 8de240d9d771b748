// failmine/obs/tsdb_query.hpp
//
// Expression layer over obs::tsdb — a deliberately small PromQL-shaped
// grammar evaluated against the store's compressed history:
//
//   expr     := [agg [by] '('] [fn '('] selector [window] [')'] [')']
//   agg      := sum | avg | min | max          (pointwise across series)
//   by       := 'by' '(' label (',' label)* ')'  (group the aggregation)
//   fn       := value | rate | increase | pNN  (NN in 1..99)
//   selector := family glob, optionally '{' matcher (',' matcher)* '}'
//   matcher  := key '=' '"' value '"'          (exact; absent label = "")
//             | key '=~' '"' glob '"'          (label present + '*'-glob)
//   window   := '[' N (ms|s|m|h) ']'           (defaults to the step)
//
// N is a decimal number; a window rounds to whole milliseconds and must
// land in [1 ms, kMaxTsdbDurationMs], so a unitless, non-finite, huge or
// sub-millisecond window is a ParseError rather than a silent default.
//
// Examples:
//   rate(stream.records_processed[1m])
//   sum(rate(stream.shard*.processed[30s]))
//   sum by (twin) (rate(stream.records_in{twin=~"*"}[1m]))
//   value(stream.window.failure_rate{twin="t3"})
//   p99(stream.router.batch_us[30s])           — from windowed bucket
//                                                deltas, never lifetime
//   value(stream.queue_depth)
//
// A selector without a `{...}` block keeps the legacy behavior: a
// '*'-glob over the full series name (which therefore never matches a
// labeled series unless the glob spells the block out). A selector
// with a block matches the family glob against the series family and
// every matcher against its parsed labels, so `{twin=~"*"}` means "any
// series carrying a twin label" and extra labels on the series do not
// block a match. Aggregating `by (label)` emits one output series per
// distinct value tuple, named `<expr>{label="value",...}`.
//
// `increase` is the reset-aware growth over the window (tsdb_increase)
// and `rate` is that increase divided by the span it covers, in
// seconds. The covered span is the whole window whenever a sample at or
// before the window start serves as the baseline — so tiled windows
// reconcile exactly with the cumulative counter — and otherwise runs
// from the series' first sample, so a series' first window is not
// under-reported. Both give no value while the covered span is 0 (a
// single sample): one scrape says nothing about a rate. Quantile
// functions match the store's `<base>.bucket{le="..."}` series,
// compute per-bucket increases over the window and run the shared
// histogram_quantile on the deltas, abstaining on a window with no
// observations; a labeled histogram's buckets
// (`family.bucket{le="...",twin="..."}`) stay grouped per label set.
//
// The same engine backs `GET /query` / `GET /series` on obs::serve, the
// alert engine (obs/alerts.hpp: every rule is an instant query) and the
// CLI's end-of-run sparkline trend report.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "labels.hpp"
#include "tsdb.hpp"

namespace failmine::obs {

enum class TsdbAgg { kNone, kSum, kAvg, kMin, kMax };
enum class TsdbFn { kValue, kRate, kIncrease, kQuantile };

/// Longest duration a window or an alert rule's `for` hold may name:
/// 2^53 ms (about 285,000 years). Every accepted duration is an exact
/// double, so it renders and re-parses unchanged, and `t - window`
/// cannot overflow for any timestamp a store holds.
inline constexpr std::int64_t kMaxTsdbDurationMs = std::int64_t{1} << 53;

struct TsdbQuery {
  TsdbAgg agg = TsdbAgg::kNone;
  TsdbFn fn = TsdbFn::kValue;
  double quantile = 0.0;  ///< for kQuantile, in (0, 1)
  std::string selector;
  std::vector<std::string> by;  ///< labels of the `by (...)` clause
  std::int64_t window_ms = 0;   ///< 0 = default to the query step

  friend bool operator==(const TsdbQuery&, const TsdbQuery&) = default;
};

/// Parses an expression; throws failmine::ParseError with a pointed
/// message on malformed input.
TsdbQuery parse_tsdb_query(std::string_view expr);

/// Canonical rendering of a parsed query: parse_tsdb_query of it yields
/// the same query. A query without a window renders without one. Used
/// as the output series name for aggregations and as the `expr` of an
/// alert rule.
std::string tsdb_query_to_string(const TsdbQuery& q);

/// Parses a duration `N(ms|s|m|h)`, as a window or an alert `for` hold
/// spells it, into milliseconds rounded to nearest. Throws
/// failmine::ParseError, naming `what`, when N or the unit is missing
/// or unknown, or when the result is not finite, exceeds
/// kMaxTsdbDurationMs, or falls below 1 ms (`positive`) or 0.
std::int64_t parse_tsdb_duration_ms(std::string_view spec,
                                    std::string_view what, bool positive);

/// '*'-glob match (no other metacharacters).
bool tsdb_glob_match(std::string_view pattern, std::string_view text);

/// One label matcher inside a selector: `key="value"` (exact; a series
/// without the label matches value "") or `key=~"glob"` (the label must
/// be present and its value '*'-glob-match).
struct TsdbLabelMatcher {
  std::string key;
  std::string value;
  bool is_glob = false;
};

/// A parsed series selector: a '*'-glob over the family name plus zero
/// or more label matchers.
struct TsdbSelector {
  std::string family = "*";
  std::vector<TsdbLabelMatcher> matchers;
  bool has_block = false;  ///< the selector spelled a `{...}` block

  /// True when any matcher targets `key`.
  bool matches_key(std::string_view key) const;
};

/// Parses a selector; throws failmine::ParseError on a malformed label
/// block.
TsdbSelector parse_tsdb_selector(std::string_view selector);

/// True when a series (family + parsed labels) satisfies the selector.
/// Extra labels on the series never block a match.
bool tsdb_selector_matches(const TsdbSelector& sel,
                           const ParsedMetricName& series);

/// Convenience overload: parses `name` first (an unparseable name is
/// treated as a bare family).
bool tsdb_selector_matches(const TsdbSelector& sel, std::string_view name);

struct TsdbQuerySeries {
  std::string name;
  std::vector<TsdbPoint> points;
};

struct TsdbQueryResult {
  std::vector<TsdbQuerySeries> series;
};

/// Evaluates `q` on the step grid start, start+step, ..., end
/// (inclusive; instant queries pass start == end). Steps with no data
/// are omitted rather than emitted as gaps.
TsdbQueryResult eval_tsdb_query(const TsdbStore& store, const TsdbQuery& q,
                                std::int64_t start_ms, std::int64_t end_ms,
                                std::int64_t step_ms);

/// {"expr":...,"start":s,"end":e,"step":s,"series":[{"name":...,
///  "points":[[unix_seconds,value],...]},...]} — the /query body.
std::string tsdb_query_json(const std::string& expr, std::int64_t start_ms,
                            std::int64_t end_ms, std::int64_t step_ms,
                            const TsdbQueryResult& result);

/// {"stats":{...},"series":[...]} — the /series body.
std::string tsdb_series_json(const TsdbStore& store);

/// Renders `points` as a fixed-width UTF-8 sparkline (▁▂▃▄▅▆▇█), one
/// column per equal time slice, scaled to the series' finite min/max;
/// empty slices render as spaces.
std::string render_sparkline(const std::vector<TsdbPoint>& points,
                             std::size_t width);

/// Multi-line end-of-run trend report: one sparkline row per output
/// series (so a `sum by (twin)` expression renders one labeled row per
/// twin), evaluated over the store's full retained span. Expressions
/// that fail to parse or match nothing are skipped.
std::string tsdb_trend_report(const TsdbStore& store,
                              const std::vector<std::string>& exprs,
                              std::size_t width = 44);

}  // namespace failmine::obs
