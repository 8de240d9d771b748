// failmine/obs/alerts.hpp
//
// Declarative SLO/alert rules over the time-series store. A rule is a
// tsdb query (obs/tsdb_query.hpp), a comparison and a threshold,
// optionally with a hold duration ("for"), one rule per line (rule
// files and the built-in defaults share the grammar):
//
//   <name>: <tsdb expr> <op> <threshold> [for <N>(ms|s|m|h)]
//
//   op  >  >=  <  <=
//
//   # comments and blank lines are ignored
//   stream-drops: rate(stream.records_dropped[30s]) > 0
//   shard-apply-p99: p99(stream.shard0.apply_us) > 50000 for 10s
//   twin-burn: sum by (twin) (increase(stream.records_dropped{twin=~"*"})) > 0
//
// The expression is parsed by parse_tsdb_query and evaluated only by
// eval_tsdb_query, as an instant query at the store's latest scrape
// with kDefaultAlertWindowMs as the step, so a rule without a [window]
// reads the trailing 60 s. Every output series is one label group with
// its own state machine, named exactly as `GET /query` names it: a
// group's value in `GET /alerts` equals that series in
// `GET /query?expr=<expr>&step=60` at the latest scrape, bit for bit.
// `value(stream.stalled_shards{twin=~"*"}) > 0` therefore fires once
// per stalled twin while healthy twins stay inactive. Rate, increase
// and quantile semantics are the query layer's: rate is the increase
// over the span the window covers, so a rate rule has no value (and no
// verdict) before its series' second scrape, and a quantile abstains
// on a window without observations.
//
// The store is the one attached with set_history() (the CLI attaches
// the global obs::tsdb() under --tsdb). Without one the engine owns a
// store over its registry and scrapes it at the start of every
// evaluation; a scrape always lands (TsdbStore::scrape_once), so two
// evaluations within one millisecond both see the newest values.
//
// The engine evaluates on a background thread (start(); the poll
// interval is configurable, tests run it synchronously with
// evaluate_now()) and walks each group through the conventional state
// machine: inactive -> pending (condition true, hold not yet served) ->
// firing -> resolved (condition cleared after firing; a fresh breach
// re-enters pending). A group whose series drops out of the result
// (no data) keeps its state machine and never breaches; a rule whose
// query returns nothing at all evaluates a single synthetic no-data
// group named after the expression (so `GET /alerts` always shows at
// least one row per rule). firing() counts firing *groups*.
//
// Exposure: status() / to_json() back the telemetry server's
// `GET /alerts`; firing() is a lock-free count for the /healthz body's
// `alerts_firing` field; the engine also maintains the
// `obs.alerts.firing` gauge and `obs.alerts.evaluations` /
// `obs.alerts.transitions` counters, and logs every transition.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tsdb_query.hpp"

namespace failmine::obs {

/// The step every rule is evaluated with: the window of a rule whose
/// expression names none.
inline constexpr std::int64_t kDefaultAlertWindowMs = 60'000;

enum class AlertOp { kGt, kGe, kLt, kLe };
enum class AlertState { kInactive, kPending, kFiring, kResolved };

std::string_view alert_op_name(AlertOp op);
std::string_view alert_state_name(AlertState state);

struct AlertRule {
  std::string name;
  TsdbQuery query;  ///< rendered by tsdb_query_to_string as `expr`
  AlertOp op = AlertOp::kGt;
  double threshold = 0.0;   ///< always finite
  std::int64_t for_ms = 0;  ///< hold duration before pending -> firing

  friend bool operator==(const AlertRule&, const AlertRule&) = default;
};

/// One label group's live status as of the last evaluation. A rule
/// whose query returns several series contributes several statuses.
struct AlertStatus {
  AlertRule rule;
  std::string series;  ///< the /query series name (the expr when none)
  AlertState state = AlertState::kInactive;
  bool has_value = false;   ///< false when the query gave no value
  double last_value = 0.0;  ///< query value at the last evaluation
  std::int64_t since_ms = 0;  ///< ms the group has been in this state
};

/// Parses the rule grammar above; throws ParseError naming the line on
/// malformed input, including a non-finite threshold and every window
/// or duration parse_tsdb_query / parse_tsdb_duration_ms reject.
std::vector<AlertRule> parse_alert_rules(std::string_view text);

/// Reads and parses a rule file; throws ObsError if unreadable.
std::vector<AlertRule> load_alert_rules_file(const std::string& path);

/// The built-in defaults a stream run starts with when no --alert-rules
/// file overrides them: drop burn rate, stalled shards, and sustained
/// ingest-ring saturation.
std::vector<AlertRule> default_alert_rules();

class AlertEngine {
 public:
  /// Evaluates against `registry`, or the process-global metrics()
  /// when null.
  explicit AlertEngine(MetricsRegistry* registry = nullptr);
  ~AlertEngine();

  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Replaces the rule set (resets every rule's state).
  void set_rules(std::vector<AlertRule> rules);
  void add_rule(AlertRule rule);
  std::size_t rule_count() const;

  /// Attaches (or detaches, with nullptr) the time-series store rules
  /// are evaluated against. Attaching one releases the engine's own.
  void set_history(TsdbStore* history);

  /// Spawns the background evaluation thread. Idempotent.
  void start(std::int64_t poll_ms = 1000);
  /// Stops and joins the thread. Idempotent; called by the destructor.
  void stop();
  bool running() const;

  /// One synchronous evaluation pass (what the thread runs per tick):
  /// scrapes the engine's own store when none is attached, then
  /// evaluates every rule. Usable without start() — tests and one-shot
  /// checks drive it directly.
  void evaluate_now();

  /// Number of label groups currently firing (lock-free; safe from any
  /// thread, e.g. the /healthz handler).
  std::size_t firing() const {
    return firing_.load(std::memory_order_relaxed);
  }

  /// One entry per label group per rule, in rule order.
  std::vector<AlertStatus> status() const;

  /// {"firing":N,"rules":[{"name":...,"expr":...,"state":...,...},...]}
  std::string to_json() const;

 private:
  /// The state machine of one label group. The map key is the query's
  /// output series name; "" is the synthetic no-data group of a rule
  /// whose query returned nothing.
  struct GroupState {
    AlertState state = AlertState::kInactive;
    bool has_value = false;
    double last_value = 0.0;
    std::int64_t state_since_ms = 0;    ///< steady ms of last transition
    std::int64_t pending_since_ms = 0;  ///< steady ms the breach began
  };

  struct RuleState {
    AlertRule rule;
    std::map<std::string, GroupState> groups;
  };

  void loop(std::int64_t poll_ms);
  void evaluate_locked(std::int64_t now_ms);

  MetricsRegistry* registry_;
  TsdbStore* history_ = nullptr;    // guarded by mutex_
  std::unique_ptr<TsdbStore> own_;  // guarded by mutex_; null once attached
  mutable std::mutex mutex_;  // guards rules_ and the stop flag
  std::vector<RuleState> rules_;
  std::atomic<std::size_t> firing_{0};

  std::thread thread_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::atomic<bool> running_{false};
};

/// The process-wide engine the CLI and the telemetry server share.
AlertEngine& alerts();

}  // namespace failmine::obs
