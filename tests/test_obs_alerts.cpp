// Tests for obs::alerts — the rule grammar (a tsdb query, a comparison,
// a threshold and an optional hold; seeded mutations must parse and
// round-trip or be rejected), the pending->firing->resolved state
// machine, the /alerts = /query contract on attached and engine-owned
// stores, and the JSON surface behind GET /alerts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "grammar_mutator.hpp"
#include "obs/alerts.hpp"
#include "obs/metrics.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "util/error.hpp"

namespace failmine::obs {
namespace {

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() /
         (std::string("failmine_alerts_") + std::to_string(::getpid()) + "_" +
          name);
}

/// A rule back in grammar form: the query through tsdb_query_to_string,
/// the threshold at round-trip precision and the hold in milliseconds.
std::string render_rule(const AlertRule& rule) {
  char threshold[40];
  std::snprintf(threshold, sizeof(threshold), "%.17g", rule.threshold);
  std::string out = rule.name + ": " + tsdb_query_to_string(rule.query) +
                    " " + std::string(alert_op_name(rule.op)) + " " +
                    threshold;
  if (rule.for_ms > 0) out += " for " + std::to_string(rule.for_ms) + "ms";
  return out + "\n";
}

// ---- grammar -----------------------------------------------------------

TEST(AlertRuleParser, ParsesFullGrammar) {
  const auto rules = parse_alert_rules(
      "# comment line\n"
      "\n"
      "drops: rate(stream.records_dropped) > 0\n"
      "  p99-slo : p99(stream.shard0.apply_us) >= 5e4 for 10s  # trailing\n"
      "level-low: value(stream.queue_depth) < 1 for 250ms\n");
  ASSERT_EQ(rules.size(), 3u);

  EXPECT_EQ(rules[0].name, "drops");
  EXPECT_EQ(rules[0].query.fn, TsdbFn::kRate);
  EXPECT_EQ(rules[0].query.selector, "stream.records_dropped");
  EXPECT_EQ(rules[0].op, AlertOp::kGt);
  EXPECT_EQ(rules[0].threshold, 0.0);
  EXPECT_EQ(rules[0].for_ms, 0);

  EXPECT_EQ(rules[1].name, "p99-slo");
  EXPECT_EQ(rules[1].query.fn, TsdbFn::kQuantile);
  EXPECT_DOUBLE_EQ(rules[1].query.quantile, 0.99);
  EXPECT_EQ(rules[1].op, AlertOp::kGe);
  EXPECT_EQ(rules[1].threshold, 5e4);
  EXPECT_EQ(rules[1].for_ms, 10000);

  EXPECT_EQ(rules[2].query.fn, TsdbFn::kValue);
  EXPECT_EQ(rules[2].op, AlertOp::kLt);
  EXPECT_EQ(rules[2].for_ms, 250);

  // The whole tsdb grammar is legal: increase, aggregation, by (...).
  const auto grouped = parse_alert_rules(
      "burn: sum by (twin) (increase(drops{twin=~\"*\"}[5m])) >= 3 for 1m\n");
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].query.agg, TsdbAgg::kSum);
  EXPECT_EQ(grouped[0].query.fn, TsdbFn::kIncrease);
  EXPECT_EQ(grouped[0].query.by, std::vector<std::string>{"twin"});
  EXPECT_EQ(grouped[0].query.window_ms, 300'000);
  EXPECT_EQ(grouped[0].for_ms, 60'000);
}

TEST(AlertRuleParser, ExpressionRoundTrips) {
  const auto rules =
      parse_alert_rules("x: p90(lat.us) > 250 for 2s\ny: value(g) <= 1\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(tsdb_query_to_string(rules[0].query), "p90(lat.us)");
  EXPECT_EQ(tsdb_query_to_string(rules[1].query), "g");
  // Round-trip: re-parsing the rendered rule yields the same rule.
  for (const auto& rule : rules) {
    const auto again = parse_alert_rules(render_rule(rule));
    ASSERT_EQ(again.size(), 1u) << render_rule(rule);
    EXPECT_EQ(again[0], rule) << render_rule(rule);
  }
}

TEST(AlertRuleParser, ParsesAndRoundTripsWindowSuffixes) {
  const auto rules = parse_alert_rules(
      "a: rate(drops[30s]) > 1\n"
      "b: p99(lat.us[1500ms]) >= 2 for 5s\n"
      "c: rate(burn[2m]) > 3\n"
      "d: rate(no.window) > 4\n");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].query.window_ms, 30'000);
  EXPECT_EQ(rules[0].query.selector, "drops");
  EXPECT_EQ(rules[1].query.window_ms, 1'500);
  EXPECT_EQ(rules[1].query.selector, "lat.us");
  EXPECT_EQ(rules[1].for_ms, 5'000);
  EXPECT_EQ(rules[2].query.window_ms, 120'000);
  EXPECT_EQ(rules[3].query.window_ms, 0);  // evaluated over the 60 s step

  EXPECT_EQ(tsdb_query_to_string(rules[0].query), "rate(drops[30s])");
  EXPECT_EQ(tsdb_query_to_string(rules[1].query), "p99(lat.us[1500ms])");
  EXPECT_EQ(tsdb_query_to_string(rules[3].query), "rate(no.window)");
  for (const auto& rule : rules) {
    const auto again = parse_alert_rules(render_rule(rule));
    ASSERT_EQ(again.size(), 1u) << render_rule(rule);
    EXPECT_EQ(again[0], rule) << render_rule(rule);
  }
}

TEST(AlertRuleParser, RejectsMalformedWindows) {
  const auto expect_fail = [](const char* text, const char* what) {
    try {
      parse_alert_rules(text);
      ADD_FAILURE() << "expected ParseError for: " << text;
    } catch (const failmine::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_fail("x: rate(m[5q]) > 1\n", "window unit");
  expect_fail("x: rate(m[xs]) > 1\n", "window");
  expect_fail("x: rate(m[-5s]) > 1\n", "positive");
  expect_fail("x: rate(m]) > 1\n", "']'");
  // A window needs a unit, in rules as in /query.
  expect_fail("x: rate(m[30]) > 1\n", "missing unit");
}

TEST(AlertRuleParser, RejectsMalformedLinesWithLineNumbers) {
  const auto expect_fail = [](const char* text, const char* what) {
    try {
      parse_alert_rules(text);
      ADD_FAILURE() << "expected ParseError for: " << text;
    } catch (const failmine::ParseError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
      EXPECT_NE(msg.find("alert rule line "), std::string::npos) << msg;
      EXPECT_EQ(msg.find("parse error:", 1), std::string::npos) << msg;
    }
  };
  expect_fail("no colon here\n", "missing ':'");
  expect_fail("x: frobnicate(m) > 1\n", "unknown fn");
  expect_fail("x: value() > 1\n", "empty metric");
  expect_fail("x: value(m) ~ 1\n", "comparison");
  expect_fail("x: value(m) > banana\n", "threshold");
  expect_fail("x: value(m) > 1 for 5 fortnights\n", "unit");
  expect_fail("ok: value(m) > 1\nbad line\n", "line 2");
  // Out-of-range numbers are rejected where they enter, naming the line.
  expect_fail("ok: value(m) > 1\nx: rate(m[infs]) > 1\n", "line 2");
  expect_fail("x: rate(m[infs]) > 1\n", "out of range");
  expect_fail("x: rate(m[1e300s]) > 1\n", "out of range");
  expect_fail("x: rate(m[0.4ms]) > 1\n", "positive");
  expect_fail("x: value(m) > nan\n", "finite");
  expect_fail("x: value(m) > inf\n", "finite");
  expect_fail("x: value(m) > 1e999\n", "finite");
  expect_fail("x: value(m) > 1 for 1e300s\n", "out of range");
  expect_fail("x: value(m) > 1 for -1s\n", "non-negative");
  expect_fail("x: value(m) > 1 for 5\n", "missing unit");
}

TEST(AlertRuleParser, SeededMutationsParseAndRoundTripOrThrow) {
  // Corpus: every rule spelled in the tests, the README, the built-in
  // defaults and the CLI's fleet rules.
  std::vector<std::string> corpus = {
      "drops: rate(stream.records_dropped) > 0",
      "  p99-slo : p99(stream.shard0.apply_us) >= 5e4 for 10s  # trailing",
      "level-low: value(stream.queue_depth) < 1 for 250ms",
      "x: p90(lat.us) > 250 for 2s\ny: value(g) <= 1",
      "a: rate(drops[30s]) > 1\nb: p99(lat.us[1500ms]) >= 2 for 5s",
      "c: rate(burn[2m]) > 3\nd: rate(no.window) > 4",
      "depth: value(q.depth{twin=~\"*\"}) > 10",
      "burn: rate(drops{twin=~\"*\"}) > 0",
      "burn: sum by (twin) (increase(drops{twin=~\"*\"}[5m])) >= 3 for 1m",
      "slow: p99(lat.us[1m]) > 1000",
      "held: value(g) > 0 for 50ms",
      "serve-test-alert: value(serve_test.alert_gauge) > 5",
      "apply-slo: p99(stream.shard0.apply_us) > 100000 for 5s",
      "burn: rate(stream.records_dropped[30s]) > 0",
      "burn: sum by (twin) (increase(stream.records_dropped{twin=~\"*\"}[30s]))"
      " > 0",
      "stream-drops: rate(stream.records_dropped{twin=~\"*\"}) > 0",
      "stream-shard-stalled: value(stream.stalled_shards{twin=~\"*\"}) > 0",
  };
  for (const AlertRule& rule : default_alert_rules())
    corpus.push_back(render_rule(rule));
  // Every rule in the repo parses as written.
  for (const std::string& text : corpus)
    EXPECT_NO_THROW((void)parse_alert_rules(text)) << text;

  test::GrammarMutator mutator(corpus, /*seed=*/20190624);
  std::size_t parsed = 0, rejected = 0, failures = 0;
  while (mutator.edits() < 100'000) {
    const std::string input = mutator.next();
    std::vector<AlertRule> rules;
    try {
      rules = parse_alert_rules(input);
    } catch (const failmine::ParseError&) {
      ++rejected;
      continue;
    }
    ++parsed;
    for (const AlertRule& rule : rules) {
      const std::string text = render_rule(rule);
      std::vector<AlertRule> again;
      try {
        again = parse_alert_rules(text);
      } catch (const failmine::ParseError& e) {
        if (++failures <= 5)
          ADD_FAILURE() << "rendering of " << testing::PrintToString(input)
                        << " does not parse: " << e.what();
        continue;
      }
      if ((again.size() != 1 || !(again[0] == rule)) && ++failures <= 5)
        ADD_FAILURE() << testing::PrintToString(input) << " renders as "
                      << testing::PrintToString(text)
                      << ", which parses to a different rule";
    }
  }
  EXPECT_EQ(failures, 0u);
  // The mutator must exercise both verdicts, not just one.
  EXPECT_GT(parsed, 1'000u);
  EXPECT_GT(rejected, 1'000u);
}

TEST(AlertRuleParser, LoadsFromFileAndDefaultsParse) {
  const auto path = temp_path("rules");
  {
    std::ofstream out(path);
    out << "a: value(m) > 1\n";
  }
  const auto rules = load_alert_rules_file(path.string());
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].name, "a");
  std::filesystem::remove(path);

  EXPECT_THROW(load_alert_rules_file("/nonexistent/alert/rules"),
               failmine::ObsError);

  const auto defaults = default_alert_rules();
  EXPECT_GE(defaults.size(), 3u);
  for (const auto& rule : defaults) EXPECT_FALSE(rule.name.empty());
}

// ---- engine ------------------------------------------------------------

TEST(AlertEngine, ValueRuleFiresAndResolves) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("depth: value(q.depth) > 10\n"));

  reg.gauge("q.depth").set(5.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 0u);
  ASSERT_EQ(engine.status().size(), 1u);
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);

  reg.gauge("q.depth").set(25.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.status()[0].last_value, 25.0);

  reg.gauge("q.depth").set(3.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_EQ(engine.status()[0].state, AlertState::kResolved);

  // A fresh breach re-enters from resolved.
  reg.gauge("q.depth").set(99.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
}

TEST(AlertEngine, MissingMetricNeverFires) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("ghost: value(not.there) > 0\n"));
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_FALSE(engine.status()[0].has_value);
  EXPECT_NE(engine.to_json().find("\"value\":null"), std::string::npos);
}

TEST(AlertEngine, RateRuleNeedsABaselineThenMeasuresDelta) {
  // No store attached: the engine scrapes a store of its own per
  // evaluation, each scrape stamped after the last, so back-to-back
  // evaluations need no sleeps.
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("burn: rate(drops) > 0\n"));

  reg.counter("drops").add(100);
  engine.evaluate_now();  // one scrape covers no time: no rate yet
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_FALSE(engine.status()[0].has_value);

  engine.evaluate_now();  // no increase since the first scrape
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_TRUE(engine.status()[0].has_value);
  EXPECT_EQ(engine.status()[0].last_value, 0.0);

  reg.counter("drops").add(10);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  EXPECT_GT(engine.status()[0].last_value, 0.0);
}

TEST(AlertEngine, QuantileRuleUsesHistogramAndSkipsEmpty) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("slow: p99(lat.us) > 100\n"));

  (void)reg.histogram("lat.us", {10.0, 100.0, 1000.0});
  engine.evaluate_now();  // histogram exists but is empty: no verdict
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_FALSE(engine.status()[0].has_value);

  for (int i = 0; i < 100; ++i) reg.histogram("lat.us").observe(500.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  EXPECT_GT(engine.status()[0].last_value, 100.0);
}

TEST(AlertEngine, ForDurationHoldsInPendingBeforeFiring) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("held: value(g) > 0 for 50ms\n"));

  reg.gauge("g").set(1.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].state, AlertState::kPending);
  EXPECT_EQ(engine.firing(), 0u);

  // Condition clears during the hold: back to inactive, not firing.
  reg.gauge("g").set(0.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);

  // Breach that survives the hold fires.
  reg.gauge("g").set(1.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].state, AlertState::kPending);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].state, AlertState::kFiring);
  EXPECT_EQ(engine.firing(), 1u);
}

TEST(AlertEngine, ToJsonListsEveryRule) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(
      parse_alert_rules("one: value(a) > 1\ntwo: rate(b) > 2 for 3s\n"));
  reg.gauge("a").set(5.0);
  engine.evaluate_now();
  const std::string json = engine.to_json();
  EXPECT_NE(json.find("\"firing\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"one\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"two\""), std::string::npos);
  EXPECT_NE(json.find("\"expr\":\"rate(b)\",\"op\":\">\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"threshold\":2,"), std::string::npos);
  EXPECT_NE(json.find("\"for_ms\":3000"), std::string::npos);
}

TEST(AlertEngine, BackgroundThreadEvaluatesAndStopsCleanly) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("hot: value(g) > 0\n"));
  reg.gauge("g").set(1.0);
  engine.start(/*poll_ms=*/5);
  EXPECT_TRUE(engine.running());
  engine.start(5);  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.firing() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(engine.firing(), 1u);
  engine.stop();
  EXPECT_FALSE(engine.running());
  engine.stop();  // idempotent
}

TEST(AlertEngine, SetRulesResetsStateAndFiringCount) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("x: value(g) > 0\n"));
  reg.gauge("g").set(1.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  engine.set_rules(parse_alert_rules("y: value(g) < 0\n"));
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_EQ(engine.rule_count(), 1u);
  engine.add_rule(parse_alert_rules("z: value(g) > 100\n")[0]);
  EXPECT_EQ(engine.rule_count(), 2u);
}

// ---- per-label-group evaluation ----------------------------------------

TEST(AlertEngineGroups, SelectorRulesFirePerLabelGroup) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules(
      "depth: value(q.depth{twin=~\"*\"}) > 10\n"));
  reg.gauge("q.depth", {{"twin", "t0"}}).set(5.0);
  reg.gauge("q.depth", {{"twin", "t1"}}).set(25.0);

  // One rule, two matched series, independent state machines.
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  const auto status = engine.status();
  ASSERT_EQ(status.size(), 2u);
  for (const auto& s : status) {
    EXPECT_EQ(s.rule.name, "depth");
    if (s.series == "q.depth{twin=\"t1\"}") {
      EXPECT_EQ(s.state, AlertState::kFiring);
      EXPECT_DOUBLE_EQ(s.last_value, 25.0);
    } else {
      EXPECT_EQ(s.series, "q.depth{twin=\"t0\"}");
      EXPECT_EQ(s.state, AlertState::kInactive);
    }
  }
  EXPECT_NE(engine.to_json().find("\"series\":\"q.depth{twin=\\\"t1\\\"}\""),
            std::string::npos);

  // Groups resolve independently: t1 clears while t0 breaches.
  reg.gauge("q.depth", {{"twin", "t1"}}).set(1.0);
  reg.gauge("q.depth", {{"twin", "t0"}}).set(99.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  for (const auto& s : engine.status()) {
    if (s.series == "q.depth{twin=\"t0\"}")
      EXPECT_EQ(s.state, AlertState::kFiring);
    else
      EXPECT_EQ(s.state, AlertState::kResolved);
  }
}

TEST(AlertEngineGroups, NewLabelGroupsJoinARunningRule) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(
      parse_alert_rules("ghost: value(g.depth{twin=~\"*\"}) > 0\n"));

  // No matching series yet: a single synthetic no-data group keyed by
  // the rule's own selector.
  engine.evaluate_now();
  ASSERT_EQ(engine.status().size(), 1u);
  EXPECT_EQ(engine.status()[0].series, "g.depth{twin=~\"*\"}");
  EXPECT_FALSE(engine.status()[0].has_value);
  EXPECT_EQ(engine.firing(), 0u);

  // The first real match retires the synthetic group; a later twin
  // joins as its own group without disturbing the first.
  reg.gauge("g.depth", {{"twin", "t0"}}).set(1.0);
  engine.evaluate_now();
  ASSERT_EQ(engine.status().size(), 1u);
  EXPECT_EQ(engine.status()[0].series, "g.depth{twin=\"t0\"}");
  EXPECT_EQ(engine.firing(), 1u);

  reg.gauge("g.depth", {{"twin", "t7"}}).set(2.0);
  engine.evaluate_now();
  EXPECT_EQ(engine.status().size(), 2u);
  EXPECT_EQ(engine.firing(), 2u);
}

TEST(AlertEngineGroups, RateRulesKeepPerGroupBaselines) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(
      parse_alert_rules("burn: rate(drops{twin=~\"*\"}) > 0\n"));
  auto& a = reg.counter("drops", {{"twin", "t0"}});
  auto& b = reg.counter("drops", {{"twin", "t1"}});
  a.add(100);
  b.add(100);
  engine.evaluate_now();  // first scrape: no group has a rate yet
  EXPECT_EQ(engine.firing(), 0u);

  // Only t1's counter moves: only t1's group may fire. Groups carry the
  // /query series names, windowed by the 60 s step.
  b.add(50);
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  ASSERT_EQ(engine.status().size(), 2u);
  for (const auto& s : engine.status()) {
    if (s.series == "rate(drops{twin=\"t1\"}[1m])") {
      EXPECT_EQ(s.state, AlertState::kFiring);
    } else {
      EXPECT_EQ(s.series, "rate(drops{twin=\"t0\"}[1m])");
      EXPECT_NE(s.state, AlertState::kFiring);
    }
  }
}

// ---- store-backed evaluation (obs::tsdb) -------------------------------

// Virtual-clock origin for the manually scraped stores below.
constexpr std::int64_t kT0 = 1'700'000'040'000;

TEST(AlertEngineHistory, RateEvaluatesStoredWindowOnFirstPass) {
  MetricsRegistry reg;
  auto& drops = reg.counter("drops");
  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore store(tc);
  AlertEngine engine(&reg);
  engine.set_history(&store);
  engine.set_rules(parse_alert_rules("burn: rate(drops[60s]) > 5\n"));

  // No scrapes yet: the attached store has nothing, so no verdict.
  engine.evaluate_now();
  EXPECT_FALSE(engine.status()[0].has_value);

  drops.add(1000);
  store.scrape_once(kT0);
  drops.add(600);
  store.scrape_once(kT0 + 60'000);

  // One evaluation suffices: 600 events over the stored 60 s window.
  engine.evaluate_now();
  EXPECT_EQ(engine.firing(), 1u);
  EXPECT_TRUE(engine.status()[0].has_value);
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 10.0);

  // Detached, the engine scrapes a store of its own, whose first
  // scrape covers no time: no rate yet.
  engine.set_history(nullptr);
  engine.set_rules(parse_alert_rules("burn: rate(drops[60s]) > 5\n"));
  engine.evaluate_now();
  EXPECT_FALSE(engine.status()[0].has_value);
}

TEST(AlertEngineHistory, RateRuleResolvesOnceItsWindowIsFlat) {
  MetricsRegistry reg;
  auto& drops = reg.counter("drops");
  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore store(tc);
  AlertEngine engine(&reg);
  engine.set_history(&store);
  engine.set_rules(parse_alert_rules("burn: rate(drops) > 0\n"));

  drops.add(100);
  store.scrape_once(kT0);
  engine.evaluate_now();  // one scrape: no rate, and no `<` verdict either
  EXPECT_FALSE(engine.status()[0].has_value);

  store.scrape_once(kT0 + 20'000);
  engine.evaluate_now();  // flat over the 20 s the window covers
  EXPECT_EQ(engine.status()[0].last_value, 0.0);
  EXPECT_EQ(engine.firing(), 0u);

  drops.add(30);
  store.scrape_once(kT0 + 40'000);
  engine.evaluate_now();  // +30 over the 40 s covered so far
  EXPECT_EQ(engine.firing(), 1u);
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 30.0 / 40.0);

  store.scrape_once(kT0 + 60'000);
  engine.evaluate_now();  // a baseline precedes the window: ÷ 60 s
  EXPECT_DOUBLE_EQ(engine.status()[0].last_value, 30.0 / 60.0);

  // Once the increase leaves the trailing 60 s, the group resolves.
  store.scrape_once(kT0 + 100'000);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].last_value, 0.0);
  EXPECT_EQ(engine.firing(), 0u);
  EXPECT_EQ(engine.status()[0].state, AlertState::kResolved);
}

TEST(AlertEngineHistory, LessThanRateRuleHasNoVerdictBeforeASecondScrape) {
  // A rate has no value until its window covers time, so a `<` rule
  // cannot fire on a fabricated 0 after the first scrape.
  MetricsRegistry reg;
  reg.counter("drops").add(5);
  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore store(tc);
  AlertEngine engine(&reg);
  engine.set_history(&store);
  engine.set_rules(parse_alert_rules("quiet: rate(drops) < 1\n"));

  store.scrape_once(kT0);
  engine.evaluate_now();
  EXPECT_FALSE(engine.status()[0].has_value);
  EXPECT_EQ(engine.status()[0].state, AlertState::kInactive);

  store.scrape_once(kT0 + 10'000);
  engine.evaluate_now();
  EXPECT_EQ(engine.status()[0].last_value, 0.0);
  EXPECT_EQ(engine.firing(), 1u);
}

TEST(AlertEngineHistory, LatencySpikeFiresOnlyViaWindowedBuckets) {
  // A p99 over lifetime-cumulative buckets never sees a short spike:
  // its 50 observations drown in 100k historical fast ones. Rules read
  // windowed bucket deltas only, so the spike fires.
  MetricsRegistry reg;
  auto& h = reg.histogram("lat.us", {100.0, 1000.0, 100000.0});
  for (int i = 0; i < 100000; ++i) h.observe(10.0);

  const char* kRule = "slow: p99(lat.us[1m]) > 1000\n";

  // The engine's own store: its first scrape leaves the window empty,
  // and there is no lifetime-bucket fallback to answer instead.
  AlertEngine own(&reg);
  own.set_rules(parse_alert_rules(kRule));
  own.evaluate_now();
  EXPECT_EQ(own.firing(), 0u);
  EXPECT_FALSE(own.status()[0].has_value);

  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore store(tc);
  store.scrape_once(kT0);  // baseline scrape covers the fast flood
  for (int i = 0; i < 50; ++i) h.observe(50'000.0);  // the spike
  store.scrape_once(kT0 + 60'000);

  AlertEngine windowed(&reg);
  windowed.set_history(&store);
  windowed.set_rules(parse_alert_rules(kRule));
  windowed.evaluate_now();
  EXPECT_EQ(windowed.firing(), 1u);
  EXPECT_GT(windowed.status()[0].last_value, 1000.0);

  // A later window with no observations abstains ("no data"), it does
  // not report a p99 of 0.
  store.scrape_once(kT0 + 600'000);
  windowed.evaluate_now();
  EXPECT_EQ(windowed.firing(), 0u);
  EXPECT_FALSE(windowed.status()[0].has_value);
}

// ---- the /alerts = /query contract ---------------------------------------

// One rule per query shape the contract covers: value, rate with and
// without a window, increase, a quantile and a by-grouped sum.
constexpr const char* kContractRules =
    "depth: value(depth{twin=~\"*\"}) > 4\n"
    "burn: rate(drops{twin=~\"*\"}) > 0.5\n"
    "burn30: rate(drops{twin=~\"*\"}[30s]) > 0.5\n"
    "grew: increase(drops{twin=\"t1\"}) > 0\n"
    "slow: p99(lat.us{twin=~\"*\"}) > 1000\n"
    "fleet: sum by (twin) (rate(drops{twin=~\"*\"})) >= 0\n";

/// Drives two twins' instruments one step: depth and drops move, and
/// twin t1's latency histogram sees slow observations.
void contract_step(MetricsRegistry& reg, int step) {
  for (const char* twin : {"t0", "t1"}) {
    const bool hot = std::string(twin) == "t1";
    reg.gauge("depth", {{"twin", twin}}).set(hot ? 3.0 * step : 1.0);
    reg.counter("drops", {{"twin", twin}}).add(hot ? 7 * step : 1);
    auto& h = reg.histogram("lat.us", {{"twin", twin}},
                            {100.0, 1000.0, 100000.0});
    for (int i = 0; i < 10; ++i) h.observe(hot ? 5'000.0 * step : 20.0);
  }
}

/// Every group the engine reports must be a series of the rule's
/// instant query at the store's newest scrape, with the same value bit
/// for bit, and every series must be a group. Returns the groups seen.
std::size_t expect_groups_match_queries(const AlertEngine& engine,
                                        const TsdbStore& store) {
  std::size_t groups = 0;
  for (const AlertRule& rule : parse_alert_rules(kContractRules)) {
    const auto result =
        eval_tsdb_query(store, rule.query, store.latest_ms(),
                        store.latest_ms(), kDefaultAlertWindowMs);
    std::size_t matched = 0;
    for (const AlertStatus& status : engine.status()) {
      if (status.rule.name != rule.name || !status.has_value) continue;
      ++groups;
      bool found = false;
      for (const auto& series : result.series) {
        if (series.name != status.series) continue;
        found = true;
        ++matched;
        EXPECT_EQ(series.points.size(), 1u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(series.points.back().value),
                  std::bit_cast<std::uint64_t>(status.last_value))
            << rule.name << " " << status.series;
      }
      EXPECT_TRUE(found) << rule.name << ": no query series " << status.series;
    }
    EXPECT_EQ(matched, result.series.size()) << rule.name;
  }
  return groups;
}

TEST(AlertEngineContract, GroupsEqualInstantQueriesOnAnAttachedStore) {
  MetricsRegistry reg;
  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore store(tc);
  AlertEngine engine(&reg);
  engine.set_history(&store);
  engine.set_rules(parse_alert_rules(kContractRules));

  // Scrapes 20 s apart: the first windows cover less than the 60 s
  // step (rate ÷ covered span), later ones a full window.
  for (int step = 1; step <= 6; ++step) {
    contract_step(reg, step);
    store.scrape_once(kT0 + step * 20'000);
    engine.evaluate_now();
    const std::size_t groups = expect_groups_match_queries(engine, store);
    // After the first scrape only value rules have data; afterwards
    // every rule does: 2+2+2+1+2+2 groups.
    EXPECT_EQ(groups, step == 1 ? 2u : 11u) << "step " << step;
  }
  // The hot twin breaches; the quiet one does not.
  for (const AlertStatus& status : engine.status()) {
    const bool hot = status.series.find("t1") != std::string::npos;
    if (status.rule.name != "fleet") {
      EXPECT_EQ(status.state == AlertState::kFiring, hot) << status.series;
    }
  }
}

TEST(AlertEngineContract, GroupsEqualInstantQueriesOnTheEngineOwnStore) {
  // Without an attached store the engine scrapes its own at wall-clock
  // time. A reference store scraped in lockstep sees the same registry
  // state, so every time-independent value (value, increase, pNN and
  // the grouping) matches it bit for bit; rate depends on the scrape
  // times, so the rate rules must agree on presence only.
  MetricsRegistry reg;
  TsdbConfig tc;
  tc.registry = &reg;
  TsdbStore reference(tc);
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules(kContractRules));

  for (int step = 1; step <= 3; ++step) {
    contract_step(reg, step);
    engine.evaluate_now();
    reference.scrape_once(kT0 + step * 20'000);
    for (const AlertRule& rule : parse_alert_rules(kContractRules)) {
      const auto result = eval_tsdb_query(reference, rule.query,
                                          reference.latest_ms(),
                                          reference.latest_ms(),
                                          kDefaultAlertWindowMs);
      std::size_t with_value = 0;
      for (const AlertStatus& status : engine.status()) {
        if (status.rule.name != rule.name || !status.has_value) continue;
        ++with_value;
        if (rule.query.fn == TsdbFn::kRate) continue;
        bool found = false;
        for (const auto& series : result.series) {
          if (series.name != status.series) continue;
          found = true;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(series.points[0].value),
                    std::bit_cast<std::uint64_t>(status.last_value))
              << rule.name << " " << status.series;
        }
        EXPECT_TRUE(found) << rule.name << ": " << status.series;
      }
      EXPECT_EQ(with_value, result.series.size())
          << rule.name << " at step " << step;
    }
  }
}

TEST(AlertEngineContract, EvaluationsWithinOneMillisecondSeeTheNewestValues) {
  MetricsRegistry reg;
  AlertEngine engine(&reg);
  engine.set_rules(parse_alert_rules("hot: value(g) > 5\n"));
  for (int i = 0; i < 50; ++i) {
    reg.gauge("g").set(i % 2 == 0 ? 10.0 : 0.0);
    engine.evaluate_now();
    ASSERT_EQ(engine.firing(), i % 2 == 0 ? 1u : 0u) << "pass " << i;
    ASSERT_EQ(engine.status()[0].last_value, i % 2 == 0 ? 10.0 : 0.0);
  }
}

}  // namespace
}  // namespace failmine::obs
