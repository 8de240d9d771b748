#include "obs/alerts.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "util/error.hpp"

namespace failmine::obs {

namespace {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

bool compare(double value, AlertOp op, double threshold) {
  switch (op) {
    case AlertOp::kGt: return value > threshold;
    case AlertOp::kGe: return value >= threshold;
    case AlertOp::kLt: return value < threshold;
    case AlertOp::kLe: return value <= threshold;
  }
  return false;
}

Gauge& firing_gauge() {
  static Gauge& g = metrics().gauge("obs.alerts.firing");
  return g;
}
Counter& evaluations_counter() {
  static Counter& c = metrics().counter("obs.alerts.evaluations");
  return c;
}
Counter& transitions_counter() {
  static Counter& c = metrics().counter("obs.alerts.transitions");
  return c;
}

/// One non-blank, comment-stripped rule line: `name: expr op threshold
/// [for dur]`. Selectors cannot contain '<' or '>', so the first one
/// ends the expression.
AlertRule parse_rule_line(std::string_view line) {
  AlertRule rule;
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos)
    throw failmine::ParseError("missing ':' after rule name");
  rule.name = std::string(trim(line.substr(0, colon)));
  if (rule.name.empty()) throw failmine::ParseError("empty rule name");
  std::string_view rest = line.substr(colon + 1);

  const std::size_t op = rest.find_first_of("<>");
  if (op == std::string_view::npos)
    throw failmine::ParseError("expected comparison (> >= < <=)");
  rule.query = parse_tsdb_query(rest.substr(0, op));
  const bool inclusive = op + 1 < rest.size() && rest[op + 1] == '=';
  rule.op = rest[op] == '>' ? (inclusive ? AlertOp::kGe : AlertOp::kGt)
                            : (inclusive ? AlertOp::kLe : AlertOp::kLt);
  rest = rest.substr(op + (inclusive ? 2 : 1));

  const std::string threshold(rest);
  char* endp = nullptr;
  rule.threshold = std::strtod(threshold.c_str(), &endp);
  if (endp == threshold.c_str())
    throw failmine::ParseError("unparseable threshold");
  if (!std::isfinite(rule.threshold))
    throw failmine::ParseError("threshold must be finite");
  rest = trim(rest.substr(static_cast<std::size_t>(endp - threshold.c_str())));

  if (!rest.empty()) {
    if (rest.substr(0, 3) != "for")
      throw failmine::ParseError("trailing garbage '" + std::string(rest) +
                                 "'");
    rule.for_ms = parse_tsdb_duration_ms(trim(rest.substr(3)),
                                         "'for' duration",
                                         /*positive=*/false);
  }
  return rule;
}

}  // namespace

std::string_view alert_op_name(AlertOp op) {
  switch (op) {
    case AlertOp::kGt: return ">";
    case AlertOp::kGe: return ">=";
    case AlertOp::kLt: return "<";
    case AlertOp::kLe: return "<=";
  }
  return "?";
}

std::string_view alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

std::vector<AlertRule> parse_alert_rules(std::string_view text) {
  std::vector<AlertRule> rules;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    try {
      rules.push_back(parse_rule_line(line));
    } catch (const failmine::ParseError& e) {
      // Name the line, keeping one "parse error: " prefix.
      constexpr std::string_view kPrefix = "parse error: ";
      std::string_view why = e.what();
      if (why.starts_with(kPrefix)) why.remove_prefix(kPrefix.size());
      throw failmine::ParseError("alert rule line " + std::to_string(line_no) +
                                 ": " + std::string(why));
    }
  }
  return rules;
}

std::vector<AlertRule> load_alert_rules_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw failmine::ObsError("cannot open alert rules file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_alert_rules(ss.str());
}

std::vector<AlertRule> default_alert_rules() {
  // Built-in SLOs every stream run starts from: any drop burn is a
  // breach under the blocking policy, a stalled shard mirrors the
  // watchdog into the alert surface, and the shard-apply p99 guards
  // the per-batch latency budget.
  return parse_alert_rules(
      "stream-drops: rate(stream.records_dropped) > 0\n"
      "stream-shard-stalled: value(stream.stalled_shards) > 0\n"
      "stream-apply-p99: p99(stream.shard0.apply_us) > 100000 for 5s\n");
}

AlertEngine::AlertEngine(MetricsRegistry* registry) : registry_(registry) {}

AlertEngine::~AlertEngine() { stop(); }

void AlertEngine::set_rules(std::vector<AlertRule> rules) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  rules_.reserve(rules.size());
  for (AlertRule& rule : rules) {
    RuleState state;
    state.rule = std::move(rule);
    rules_.push_back(std::move(state));
  }
  firing_.store(0, std::memory_order_relaxed);
  firing_gauge().set(0.0);
}

void AlertEngine::add_rule(AlertRule rule) {
  const std::lock_guard<std::mutex> lock(mutex_);
  RuleState state;
  state.rule = std::move(rule);
  rules_.push_back(std::move(state));
}

std::size_t AlertEngine::rule_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rules_.size();
}

void AlertEngine::start(std::int64_t poll_ms) {
  if (poll_ms <= 0)
    throw failmine::DomainError("alert poll interval must be positive");
  if (running_.load(std::memory_order_relaxed)) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this, poll_ms] { loop(poll_ms); });
}

void AlertEngine::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

bool AlertEngine::running() const {
  return running_.load(std::memory_order_relaxed);
}

void AlertEngine::loop(std::int64_t poll_ms) {
  for (;;) {
    evaluate_now();
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                          [this] { return stop_; }))
      return;
  }
}

void AlertEngine::set_history(TsdbStore* history) {
  const std::lock_guard<std::mutex> lock(mutex_);
  history_ = history;
  if (history != nullptr) own_.reset();
}

void AlertEngine::evaluate_locked(std::int64_t now_ms) {
  TsdbStore* store = history_;
  if (store == nullptr) {
    if (own_ == nullptr) {
      TsdbConfig config;
      config.registry = registry_;
      own_ = std::make_unique<TsdbStore>(config);
    }
    own_->scrape_once();
    store = own_.get();
  }
  const std::int64_t t = store->latest_ms();
  std::size_t firing_count = 0;
  for (RuleState& rs : rules_) {
    // This round's label groups: every series the query returns joins
    // (or refreshes) a group; groups seen before stay and read as no
    // data, so a breached-then-quiet twin reports its resolved state.
    std::map<std::string, double> values;
    if (store->has_data()) {
      for (const TsdbQuerySeries& series :
           eval_tsdb_query(*store, rs.rule.query, t, t, kDefaultAlertWindowMs)
               .series)
        values.emplace(series.name, series.points.back().value);
    }
    const auto join = [&](const std::string& name) {
      const auto [it, inserted] = rs.groups.try_emplace(name);
      if (inserted) it->second.state_since_ms = now_ms;
    };
    if (!values.empty()) rs.groups.erase("");  // real series retire it
    for (const auto& entry : values) join(entry.first);
    if (rs.groups.empty()) join("");  // synthetic no-data group

    for (auto& [name, g] : rs.groups) {
      const auto found = values.find(name);
      g.has_value = found != values.end();
      if (g.has_value) g.last_value = found->second;
      const bool breach =
          g.has_value && compare(g.last_value, rs.rule.op, rs.rule.threshold);

      AlertState next = g.state;
      switch (g.state) {
        case AlertState::kInactive:
        case AlertState::kResolved:
          if (breach) {
            g.pending_since_ms = now_ms;
            next = rs.rule.for_ms == 0 ? AlertState::kFiring
                                       : AlertState::kPending;
          }
          break;
        case AlertState::kPending:
          if (!breach)
            next = AlertState::kInactive;
          else if (now_ms - g.pending_since_ms >= rs.rule.for_ms)
            next = AlertState::kFiring;
          break;
        case AlertState::kFiring:
          if (!breach) next = AlertState::kResolved;
          break;
      }
      if (next != g.state) {
        g.state = next;
        g.state_since_ms = now_ms;
        transitions_counter().add();
        const std::string series =
            name.empty() ? tsdb_query_to_string(rs.rule.query) : name;
        if (next == AlertState::kFiring)
          logger().warn("obs.alert_firing",
                        {Field("rule", rs.rule.name), Field("series", series),
                         Field("value", g.last_value),
                         Field("threshold", rs.rule.threshold)});
        else if (next == AlertState::kResolved)
          logger().info("obs.alert_resolved",
                        {Field("rule", rs.rule.name), Field("series", series)});
      }
      if (g.state == AlertState::kFiring) ++firing_count;
    }
  }
  firing_.store(firing_count, std::memory_order_relaxed);
  firing_gauge().set(static_cast<double>(firing_count));
  evaluations_counter().add();
}

void AlertEngine::evaluate_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  evaluate_locked(steady_now_ms());
}

std::vector<AlertStatus> AlertEngine::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t now_ms = steady_now_ms();
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) {
    const std::string expr = tsdb_query_to_string(rs.rule.query);
    if (rs.groups.empty()) {
      // Not yet evaluated: report the rule once, inactive, no data.
      AlertStatus status;
      status.rule = rs.rule;
      status.series = expr;
      out.push_back(std::move(status));
      continue;
    }
    for (const auto& [name, g] : rs.groups) {
      AlertStatus status;
      status.rule = rs.rule;
      status.series = name.empty() ? expr : name;
      status.state = g.state;
      status.has_value = g.has_value;
      status.last_value = g.last_value;
      status.since_ms = std::max<std::int64_t>(0, now_ms - g.state_since_ms);
      out.push_back(std::move(status));
    }
  }
  return out;
}

std::string AlertEngine::to_json() const {
  const std::vector<AlertStatus> statuses = status();
  std::string out = "{\"firing\":";
  out += std::to_string(firing());
  out += ",\"rules\":[";
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const AlertStatus& s = statuses[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, s.rule.name);
    out += ",\"expr\":";
    append_json_string(out, tsdb_query_to_string(s.rule.query));
    out += ",\"op\":";
    append_json_string(out, std::string(alert_op_name(s.rule.op)));
    out += ",\"series\":";
    append_json_string(out, s.series);
    out += ",\"state\":";
    append_json_string(out, std::string(alert_state_name(s.state)));
    out += ",\"value\":";
    out += s.has_value ? json_number(s.last_value) : "null";
    out += ",\"threshold\":";
    out += json_number(s.rule.threshold);
    out += ",\"for_ms\":";
    out += std::to_string(s.rule.for_ms);
    out += ",\"since_ms\":";
    out += std::to_string(s.since_ms);
    out += '}';
  }
  out += "]}\n";
  return out;
}

AlertEngine& alerts() {
  // Leaked intentionally (see obs::logger()).
  static AlertEngine* instance = new AlertEngine();
  return *instance;
}

}  // namespace failmine::obs
