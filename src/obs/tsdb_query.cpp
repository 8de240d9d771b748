// failmine/obs/tsdb_query.cpp

#include "tsdb_query.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "json.hpp"
#include "util/error.hpp"

namespace failmine::obs {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

[[noreturn]] void fail(std::string_view expr, const std::string& why) {
  throw failmine::ParseError("tsdb query \"" + std::string(expr) +
                             "\": " + why);
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// If `s` has the shape `ident(inner)`, returns true and fills the two
/// views. Selectors cannot contain parentheses, so this is unambiguous.
bool split_call(std::string_view s, std::string_view& ident,
                std::string_view& inner) {
  const std::size_t open = s.find('(');
  if (open == std::string_view::npos || open == 0 || s.back() != ')') {
    return false;
  }
  for (std::size_t i = 0; i < open; ++i) {
    if (!is_ident_char(s[i])) return false;
  }
  ident = s.substr(0, open);
  inner = trim(s.substr(open + 1, s.size() - open - 2));
  return true;
}

bool parse_agg(std::string_view ident, TsdbAgg& agg) {
  if (ident == "sum") agg = TsdbAgg::kSum;
  else if (ident == "avg") agg = TsdbAgg::kAvg;
  else if (ident == "min") agg = TsdbAgg::kMin;
  else if (ident == "max") agg = TsdbAgg::kMax;
  else return false;
  return true;
}

bool parse_fn(std::string_view ident, TsdbFn& fn, double& quantile) {
  if (ident == "value") {
    fn = TsdbFn::kValue;
  } else if (ident == "rate") {
    fn = TsdbFn::kRate;
  } else if (ident == "increase") {
    fn = TsdbFn::kIncrease;
  } else if (ident.size() >= 2 && ident.size() <= 3 && ident[0] == 'p') {
    int pct = 0;
    for (std::size_t i = 1; i < ident.size(); ++i) {
      if (ident[i] < '0' || ident[i] > '9') return false;
      pct = pct * 10 + (ident[i] - '0');
    }
    if (pct < 1 || pct > 99) return false;
    fn = TsdbFn::kQuantile;
    quantile = pct / 100.0;
  } else {
    return false;
  }
  return true;
}

const char* agg_name(TsdbAgg agg) {
  switch (agg) {
    case TsdbAgg::kSum: return "sum";
    case TsdbAgg::kAvg: return "avg";
    case TsdbAgg::kMin: return "min";
    case TsdbAgg::kMax: return "max";
    case TsdbAgg::kNone: break;
  }
  return "";
}

std::string window_to_string(std::int64_t window_ms) {
  char buf[32];
  if (window_ms % 60'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldm",
                  static_cast<long long>(window_ms / 60'000));
  } else if (window_ms % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(window_ms / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(window_ms));
  }
  return buf;
}

/// `fn(target[window])`, or `fn(target)` when `window_ms` is 0.
std::string fn_call_name(const TsdbQuery& q, const std::string& target,
                         std::int64_t window_ms) {
  std::string fn;
  switch (q.fn) {
    case TsdbFn::kValue: return target;  // plain lookups keep the series name
    case TsdbFn::kRate: fn = "rate"; break;
    case TsdbFn::kIncrease: fn = "increase"; break;
    case TsdbFn::kQuantile: {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "p%d",
                    static_cast<int>(std::llround(q.quantile * 100)));
      fn = buf;
      break;
    }
  }
  fn += "(" + target;
  if (window_ms > 0) fn += "[" + window_to_string(window_ms) + "]";
  return fn + ")";
}

/// Why `spec` is not a valid duration (see parse_tsdb_duration_ms), or
/// "" when it is and `ms` holds it.
std::string duration_error(std::string_view spec, std::string_view what,
                           bool positive, std::int64_t& ms) {
  const std::string text(spec);
  const std::string head = std::string(what) + " \"" + text + "\": ";
  char* endp = nullptr;
  const double n = std::strtod(text.c_str(), &endp);
  if (endp == text.c_str())
    return head + "not a number with a unit (e.g. 30s, 5m)";
  const std::string_view unit =
      trim(std::string_view(text).substr(endp - text.c_str()));
  double scale = 0.0;
  if (unit == "ms") scale = 1.0;
  else if (unit == "s") scale = 1000.0;
  else if (unit == "m") scale = 60'000.0;
  else if (unit == "h") scale = 3'600'000.0;
  else if (unit.empty()) return head + "missing unit (want ms|s|m|h)";
  else
    return head + "unknown " + std::string(what) + " unit \"" +
           std::string(unit) + "\" (want ms|s|m|h)";
  // NaN fails every comparison, so it lands in the range error.
  const double rounded = std::round(n * scale);
  if (!(rounded <= static_cast<double>(kMaxTsdbDurationMs)))
    return head + "out of range (at most 2^53 ms)";
  if (positive ? rounded < 1.0 : rounded < 0.0)
    return head + (positive ? "must be positive (at least 1 ms)"
                            : "must be non-negative");
  ms = static_cast<std::int64_t>(rounded);
  return "";
}

constexpr std::string_view kBucketInfix = ".bucket{le=\"";

}  // namespace

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

bool tsdb_glob_match(std::string_view pattern, std::string_view text) {
  // Iterative '*' glob with backtracking to the last star.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

TsdbQuery parse_tsdb_query(std::string_view expr) {
  TsdbQuery q;
  std::string_view s = trim(expr);
  if (s.empty()) fail(expr, "empty expression");

  // Grouped aggregation head: agg 'by' '(' label,... ')' '(' inner ')'.
  // split_call() cannot see this shape (the ident is followed by the by
  // clause, not '('), so it is peeled off here first.
  {
    std::size_t i = 0;
    while (i < s.size() && is_ident_char(s[i])) ++i;
    std::string_view rest = trim(s.substr(i));
    TsdbAgg agg = TsdbAgg::kNone;
    if (i > 0 && rest.size() > 2 && rest.substr(0, 2) == "by" &&
        !is_ident_char(rest[2]) && parse_agg(s.substr(0, i), agg)) {
      rest = trim(rest.substr(2));
      if (rest.empty() || rest.front() != '(')
        fail(expr, "expected '(' after 'by'");
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos)
        fail(expr, "unbalanced '(' in by clause");
      std::string_view list = rest.substr(1, close - 1);
      while (true) {
        const std::size_t comma = list.find(',');
        const std::string_view item =
            trim(comma == std::string_view::npos ? list : list.substr(0, comma));
        if (item.empty())
          fail(expr, "empty label in by (...) clause");
        for (char c : item) {
          if (!is_ident_char(c))
            fail(expr, std::string("bad character '") + c + "' in by clause");
        }
        q.by.emplace_back(item);
        if (comma == std::string_view::npos) break;
        list = list.substr(comma + 1);
      }
      rest = trim(rest.substr(close + 1));
      if (rest.size() < 2 || rest.front() != '(' || rest.back() != ')')
        fail(expr, "expected '(expr)' after the by clause");
      q.agg = agg;
      s = trim(rest.substr(1, rest.size() - 2));
    }
  }

  std::string_view ident, inner;
  if (split_call(s, ident, inner)) {
    if (q.agg == TsdbAgg::kNone && parse_agg(ident, q.agg)) {
      s = inner;
      if (!split_call(s, ident, inner)) {
        ident = {};
      }
    } else if (q.agg != TsdbAgg::kNone && parse_agg(ident, q.agg)) {
      fail(expr, "nested aggregation inside a by (...) clause");
    }
    if (!ident.empty()) {
      if (!parse_fn(ident, q.fn, q.quantile)) {
        fail(expr, "unknown fn \"" + std::string(ident) +
                       "\" (want value|rate|increase|pNN or sum|avg|min|max)");
      }
      s = inner;
      if (s.find('(') != std::string_view::npos) {
        fail(expr, "selectors cannot contain '('");
      }
    }
  } else if (s.find('(') != std::string_view::npos ||
             s.find(')') != std::string_view::npos) {
    fail(expr, "unbalanced parentheses");
  }

  // Optional trailing [window].
  if (!s.empty() && s.back() == ']') {
    const std::size_t open = s.rfind('[');
    if (open == std::string_view::npos) fail(expr, "unbalanced ']'");
    const std::string why =
        duration_error(trim(s.substr(open + 1, s.size() - open - 2)),
                       "window", /*positive=*/true, q.window_ms);
    if (!why.empty()) fail(expr, why);
    s = trim(s.substr(0, open));
  }

  if (s.empty()) fail(expr, "empty metric selector");
  for (char c : s) {
    if (!(is_ident_char(c) || c == '.' || c == '*' || c == '{' || c == '}' ||
          c == '=' || c == '"' || c == '+' || c == '-' || c == '/' ||
          c == ':' || c == '~' || c == ',' || c == '\\')) {
      fail(expr, std::string("bad character '") + c + "' in selector");
    }
  }
  q.selector = std::string(s);
  parse_tsdb_selector(q.selector);  // validate the label block up front
  return q;
}

std::int64_t parse_tsdb_duration_ms(std::string_view spec,
                                    std::string_view what, bool positive) {
  std::int64_t ms = 0;
  const std::string why = duration_error(spec, what, positive, ms);
  if (!why.empty()) throw failmine::ParseError(why);
  return ms;
}

std::string tsdb_query_to_string(const TsdbQuery& q) {
  std::string inner = fn_call_name(q, q.selector, q.window_ms);
  if (q.fn == TsdbFn::kValue && q.window_ms > 0)
    inner += "[" + window_to_string(q.window_ms) + "]";
  if (q.agg == TsdbAgg::kNone) return inner;
  std::string out = agg_name(q.agg);
  if (!q.by.empty()) {
    out += " by (";
    for (std::size_t i = 0; i < q.by.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += q.by[i];
    }
    out += ") ";
  }
  return out + "(" + inner + ")";
}

// ---------------------------------------------------------------------------
// Selectors
// ---------------------------------------------------------------------------

bool TsdbSelector::matches_key(std::string_view key) const {
  for (const TsdbLabelMatcher& m : matchers)
    if (m.key == key) return true;
  return false;
}

TsdbSelector parse_tsdb_selector(std::string_view selector) {
  const auto bad = [&](const std::string& why) -> void {
    throw failmine::ParseError("tsdb selector \"" + std::string(selector) +
                               "\": " + why);
  };
  TsdbSelector out;
  const std::size_t brace = selector.find('{');
  if (brace == std::string_view::npos) {
    out.family = std::string(selector);
    return out;
  }
  out.has_block = true;
  // An empty family part (`{twin="t3"}`) selects any family.
  if (brace > 0) out.family = std::string(selector.substr(0, brace));
  if (selector.back() != '}') bad("label block must end with '}'");
  std::string_view body = selector.substr(brace + 1, selector.size() - brace - 2);
  while (!body.empty()) {
    TsdbLabelMatcher m;
    std::size_t i = 0;
    while (i < body.size() && is_ident_char(body[i])) ++i;
    if (i == 0) bad("expected a label name");
    m.key = std::string(body.substr(0, i));
    body.remove_prefix(i);
    if (body.size() >= 2 && body[0] == '=' && body[1] == '~') {
      m.is_glob = true;
      body.remove_prefix(2);
    } else if (!body.empty() && body[0] == '=') {
      body.remove_prefix(1);
    } else {
      bad("expected '=' or '=~' after label \"" + m.key + "\"");
    }
    if (body.empty() || body.front() != '"')
      bad("expected a quoted value for label \"" + m.key + "\"");
    body.remove_prefix(1);
    std::string escaped;
    while (!body.empty() && body.front() != '"') {
      if (body.front() == '\\') {
        if (body.size() < 2) bad("dangling '\\' in label value");
        escaped.push_back(body[0]);
        escaped.push_back(body[1]);
        body.remove_prefix(2);
      } else {
        escaped.push_back(body.front());
        body.remove_prefix(1);
      }
    }
    if (body.empty()) bad("unterminated value for label \"" + m.key + "\"");
    body.remove_prefix(1);  // closing quote
    m.value = unescape_label_value(escaped);
    out.matchers.push_back(std::move(m));
    if (!body.empty()) {
      if (body.front() != ',') bad("expected ',' between matchers");
      body.remove_prefix(1);
      if (body.empty()) bad("trailing ',' in label block");
    }
  }
  return out;
}

bool tsdb_selector_matches(const TsdbSelector& sel,
                           const ParsedMetricName& series) {
  if (!tsdb_glob_match(sel.family, series.family)) return false;
  for (const TsdbLabelMatcher& m : sel.matchers) {
    const std::string* v = series.find(m.key);
    if (m.is_glob) {
      if (v == nullptr || !tsdb_glob_match(m.value, *v)) return false;
    } else if ((v == nullptr ? std::string_view() : std::string_view(*v)) !=
               m.value) {
      return false;
    }
  }
  return true;
}

bool tsdb_selector_matches(const TsdbSelector& sel, std::string_view name) {
  ParsedMetricName series;
  if (!parse_metric_name(name, series)) {
    series.family = std::string(name);
    series.labels.clear();
  }
  return tsdb_selector_matches(sel, series);
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

/// One evaluated series before aggregation: values indexed by step.
struct Evaluated {
  std::string name;
  std::vector<MetricLabel> labels;  // parsed input labels (for `by`)
  std::vector<double> values;       // NaN = absent
};

std::vector<std::int64_t> step_grid(std::int64_t start, std::int64_t end,
                                    std::int64_t step) {
  std::vector<std::int64_t> grid;
  for (std::int64_t t = start; t <= end; t += step) grid.push_back(t);
  return grid;
}

void eval_plain(const TsdbStore& store, const TsdbQuery& q,
                const std::vector<std::int64_t>& grid, std::int64_t window,
                std::vector<Evaluated>& out) {
  const std::int64_t staleness =
      q.window_ms > 0 ? q.window_ms
                      : std::max<std::int64_t>(
                            5 * store.scrape_interval_ms(), window);
  const TsdbSelector sel = parse_tsdb_selector(q.selector);
  // Every window starts at or after this; read_window adds the baseline
  // before it, so a point's value does not depend on where the range
  // starts (an instant and a range query agree at every step).
  const std::int64_t from = grid.front() - std::max(window, staleness);
  for (const auto& name : store.series_names()) {
    // Legacy blockless selector: full-name glob, bucket sub-series
    // excluded (they only match explicit {le=...} selectors).
    if (!sel.has_block &&
        (name.find(kBucketInfix) != std::string::npos ||
         !tsdb_glob_match(q.selector, name)))
      continue;
    ParsedMetricName series;
    if (!parse_metric_name(name, series)) {
      series.family = name;
      series.labels.clear();
    }
    // Bucket sub-series stay hidden unless the selector asks for `le`.
    if (sel.has_block &&
        ((series.find("le") != nullptr && !sel.matches_key("le")) ||
         !tsdb_selector_matches(sel, series)))
      continue;
    const auto pts = store.read_window(name, from, grid.back());
    if (pts.empty()) continue;
    Evaluated ev;
    ev.name = fn_call_name(q, name, window);
    ev.labels = series.labels;
    ev.values.assign(grid.size(), std::numeric_limits<double>::quiet_NaN());
    bool any = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const std::int64_t t = grid[i];
      if (q.fn == TsdbFn::kValue) {
        if (const auto v = tsdb_value_at(pts, t, staleness)) {
          ev.values[i] = *v;
          any = true;
        }
      } else {
        // One sample covers no time: neither rate nor increase has a
        // value yet (see the header for the rate definition).
        const auto inc = tsdb_increase(pts, t, window);
        if (!inc.has_value() || inc->covered_ms <= 0) continue;
        ev.values[i] = q.fn == TsdbFn::kRate
                           ? inc->increase / (inc->covered_ms / 1000.0)
                           : inc->increase;
        any = true;
      }
    }
    if (any) out.push_back(std::move(ev));
  }
}

void eval_quantile(const TsdbStore& store, const TsdbQuery& q,
                   const std::vector<std::int64_t>& grid, std::int64_t window,
                   std::vector<Evaluated>& out) {
  const TsdbSelector sel = parse_tsdb_selector(q.selector);
  const auto names = store.series_names();
  // A quantile base is (family minus ".bucket", labels minus le); the
  // canonical labeled spelling keys the grouping so each twin's buckets
  // assemble their own histogram.
  struct Bucket {
    double bound;
    bool inf;
    std::string name;
  };
  struct Base {
    std::vector<MetricLabel> labels;
    std::vector<Bucket> buckets;
  };
  std::map<std::string, Base> bases;
  constexpr std::string_view kBucketSuffix = ".bucket";
  for (const auto& name : names) {
    ParsedMetricName parsed;
    if (name.find(".bucket{") == std::string::npos ||
        !parse_metric_name(name, parsed))
      continue;
    if (parsed.family.size() <= kBucketSuffix.size() ||
        parsed.family.compare(parsed.family.size() - kBucketSuffix.size(),
                              kBucketSuffix.size(), kBucketSuffix) != 0)
      continue;
    const std::string* le = parsed.find("le");
    if (le == nullptr) continue;
    ParsedMetricName base;
    base.family =
        parsed.family.substr(0, parsed.family.size() - kBucketSuffix.size());
    for (const MetricLabel& label : parsed.labels)
      if (label.key != "le") base.labels.push_back(label);
    if (sel.has_block) {
      if (!tsdb_selector_matches(sel, base)) continue;
    } else if (!tsdb_glob_match(q.selector,
                                labeled_name(base.family, base.labels))) {
      continue;
    }
    Bucket b;
    b.inf = *le == "+Inf";
    b.bound = b.inf ? std::numeric_limits<double>::infinity()
                    : std::strtod(le->c_str(), nullptr);
    b.name = name;
    Base& slot = bases[labeled_name(base.family, base.labels)];
    slot.labels = base.labels;
    slot.buckets.push_back(std::move(b));
  }
  for (auto& [base_name, base] : bases) {
    struct LoadedBucket {
      double bound;
      bool inf;
      std::vector<TsdbPoint> pts;
    };
    std::vector<LoadedBucket> buckets;
    buckets.reserve(base.buckets.size());
    for (const Bucket& b : base.buckets) {
      buckets.push_back(
          {b.bound, b.inf,
           store.read_window(b.name, grid.front() - window, grid.back())});
    }
    std::sort(buckets.begin(), buckets.end(),
              [](const LoadedBucket& a, const LoadedBucket& b) {
                return a.bound < b.bound;
              });
    Evaluated ev;
    ev.name = fn_call_name(q, base_name, window);
    ev.labels = base.labels;
    ev.values.assign(grid.size(), std::numeric_limits<double>::quiet_NaN());
    bool any = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      HistogramSample sample;
      std::uint64_t total = 0;
      std::uint64_t overflow = 0;
      for (const auto& b : buckets) {
        const auto inc = tsdb_increase(b.pts, grid[i], window);
        const std::uint64_t d =
            (inc.has_value() && inc->increase > 0)
                ? static_cast<std::uint64_t>(std::llround(inc->increase))
                : 0;
        if (b.inf) {
          overflow = d;
        } else {
          sample.upper_bounds.push_back(b.bound);
          sample.buckets.push_back(d);
        }
        total += d;
      }
      sample.buckets.push_back(overflow);
      if (total == 0) continue;  // no observations in this window: abstain
      sample.count = total;
      ev.values[i] = histogram_quantile(sample, q.quantile);
      any = true;
    }
    if (any) out.push_back(std::move(ev));
  }
}

}  // namespace

TsdbQueryResult eval_tsdb_query(const TsdbStore& store, const TsdbQuery& q,
                                std::int64_t start_ms, std::int64_t end_ms,
                                std::int64_t step_ms) {
  TsdbQueryResult result;
  if (step_ms <= 0 || end_ms < start_ms) return result;
  const std::int64_t window = q.window_ms > 0 ? q.window_ms : step_ms;
  const auto grid = step_grid(start_ms, end_ms, step_ms);
  std::vector<Evaluated> evaluated;
  if (q.fn == TsdbFn::kQuantile) {
    eval_quantile(store, q, grid, window, evaluated);
  } else {
    eval_plain(store, q, grid, window, evaluated);
  }

  if (q.agg != TsdbAgg::kNone) {
    // Group inputs by the tuple of `by (...)` label values (a missing
    // label reads as ""); no by clause means one group holding
    // everything, which reproduces the ungrouped aggregation exactly.
    std::map<std::string, std::vector<const Evaluated*>> groups;
    for (const auto& ev : evaluated) {
      std::vector<MetricLabel> key;
      for (const std::string& label : q.by) {
        MetricLabel kv;
        kv.key = label;
        for (const MetricLabel& have : ev.labels)
          if (have.key == label) kv.value = have.value;
        key.push_back(std::move(kv));
      }
      groups[label_block(std::move(key))].push_back(&ev);
    }
    std::vector<Evaluated> grouped;
    const std::string base_name = tsdb_query_to_string(q);
    for (const auto& [block, members] : groups) {
      Evaluated agg;
      agg.name = base_name + block;
      agg.values.assign(grid.size(), std::numeric_limits<double>::quiet_NaN());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        double acc = 0.0;
        std::size_t n = 0;
        for (const Evaluated* ev : members) {
          const double v = ev->values[i];
          if (std::isnan(v)) continue;
          if (n == 0) {
            acc = v;
          } else {
            switch (q.agg) {
              case TsdbAgg::kSum:
              case TsdbAgg::kAvg: acc += v; break;
              case TsdbAgg::kMin: acc = std::min(acc, v); break;
              case TsdbAgg::kMax: acc = std::max(acc, v); break;
              case TsdbAgg::kNone: break;
            }
          }
          ++n;
        }
        if (n == 0) continue;
        if (q.agg == TsdbAgg::kAvg) acc /= static_cast<double>(n);
        agg.values[i] = acc;
      }
      grouped.push_back(std::move(agg));
    }
    evaluated = std::move(grouped);
  }

  for (auto& ev : evaluated) {
    TsdbQuerySeries s;
    s.name = std::move(ev.name);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!std::isnan(ev.values[i])) s.points.push_back({grid[i], ev.values[i]});
    }
    if (!s.points.empty()) result.series.push_back(std::move(s));
  }
  return result;
}

// ---------------------------------------------------------------------------
// JSON + sparklines
// ---------------------------------------------------------------------------

std::string tsdb_query_json(const std::string& expr, std::int64_t start_ms,
                            std::int64_t end_ms, std::int64_t step_ms,
                            const TsdbQueryResult& result) {
  std::string out = "{\"expr\":";
  append_json_string(out, expr);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"start\":%.3f,\"end\":%.3f,\"step\":%.3f,\"series\":[",
                start_ms / 1000.0, end_ms / 1000.0, step_ms / 1000.0);
  out += buf;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const auto& s = result.series[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"points\":[";
    for (std::size_t j = 0; j < s.points.size(); ++j) {
      if (j > 0) out.push_back(',');
      std::snprintf(buf, sizeof(buf), "[%.3f,", s.points[j].t_ms / 1000.0);
      out += buf;
      out += json_number(s.points[j].value);
      out.push_back(']');
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string tsdb_series_json(const TsdbStore& store) {
  std::string out = "{\"stats\":";
  out += store.stats_json();
  out += ",\"series\":[";
  const auto infos = store.series_info();
  char buf[128];
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const auto& s = infos[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"type\":\"%s\",\"samples\":%llu,\"resident_bytes\":%llu"
                  ",\"first_unix_ms\":%lld,\"last_unix_ms\":%lld}",
                  s.counter ? "counter" : "gauge",
                  static_cast<unsigned long long>(s.samples),
                  static_cast<unsigned long long>(s.resident_bytes),
                  static_cast<long long>(s.first_ms),
                  static_cast<long long>(s.last_ms));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string render_sparkline(const std::vector<TsdbPoint>& points,
                             std::size_t width) {
  static const char* kLevels[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  if (width == 0) return "";
  if (points.empty()) return std::string(width, ' ');
  const std::int64_t t0 = points.front().t_ms;
  const std::int64_t t1 = points.back().t_ms;
  const std::int64_t span = std::max<std::int64_t>(t1 - t0, 1);
  // Column means, then scale to the finite min/max.
  std::vector<double> sums(width, 0.0);
  std::vector<std::size_t> counts(width, 0);
  for (const auto& p : points) {
    if (!std::isfinite(p.value)) continue;
    std::size_t col = static_cast<std::size_t>(
        (static_cast<double>(p.t_ms - t0) / static_cast<double>(span)) *
        static_cast<double>(width));
    if (col >= width) col = width - 1;
    sums[col] += p.value;
    ++counts[col];
  }
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < width; ++c) {
    if (counts[c] == 0) continue;
    const double v = sums[c] / static_cast<double>(counts[c]);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  std::string out;
  for (std::size_t c = 0; c < width; ++c) {
    if (counts[c] == 0) {
      out.push_back(' ');
      continue;
    }
    const double v = sums[c] / static_cast<double>(counts[c]);
    int level = 0;
    if (mx > mn) {
      level = static_cast<int>(((v - mn) / (mx - mn)) * 7.0 + 0.5);
    } else {
      level = 3;
    }
    out += kLevels[std::clamp(level, 0, 7)];
  }
  return out;
}

std::string tsdb_trend_report(const TsdbStore& store,
                              const std::vector<std::string>& exprs,
                              std::size_t width) {
  const std::int64_t t0 = store.first_ms();
  const std::int64_t t1 = store.latest_ms();
  if (t1 <= t0 || width == 0) return "";
  const std::int64_t step = std::max<std::int64_t>(
      {(t1 - t0) / static_cast<std::int64_t>(width),
       store.scrape_interval_ms(), 1});
  // Evaluate first: a by-grouped or multi-series expression contributes
  // one sparkline row per output series (labeled by the series name),
  // and the label column must be sized across all of them.
  struct Row {
    std::string label;
    std::vector<TsdbPoint> points;
  };
  std::vector<Row> rows;
  for (const auto& expr : exprs) {
    TsdbQueryResult r;
    try {
      const TsdbQuery q = parse_tsdb_query(expr);
      r = eval_tsdb_query(store, q, t0 + step, t1, step);
    } catch (const failmine::Error&) {
      continue;
    }
    for (auto& series : r.series) {
      if (series.points.empty()) continue;
      rows.push_back({r.series.size() == 1 ? expr : series.name,
                      std::move(series.points)});
    }
  }
  std::size_t label_width = 0;
  for (const auto& row : rows)
    label_width = std::max(label_width, row.label.size());
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "tsdb trend — %.1fs span, %llu samples\n",
                (t1 - t0) / 1000.0,
                static_cast<unsigned long long>(store.stats().samples));
  out += buf;
  for (const auto& row : rows) {
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    double last = 0.0;
    for (const auto& p : row.points) {
      if (!std::isfinite(p.value)) continue;
      mn = std::min(mn, p.value);
      mx = std::max(mx, p.value);
      last = p.value;
    }
    if (!std::isfinite(mn)) continue;
    out += "  ";
    out += row.label;
    out.append(label_width - row.label.size() + 2, ' ');
    out += render_sparkline(row.points, width);
    std::snprintf(buf, sizeof(buf), "  min=%.6g max=%.6g last=%.6g\n", mn, mx,
                  last);
    out += buf;
  }
  return out;
}

}  // namespace failmine::obs
