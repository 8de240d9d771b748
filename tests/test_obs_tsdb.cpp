// Tests for obs::tsdb + obs::tsdb_query — the Gorilla codec (exact
// round-trips over irregular intervals, counter resets and non-finite
// values), the pure range helpers, the store (scraping, staleness,
// multi-resolution downsampling, series budgets, tear-free concurrent
// reads), the query grammar (seeded mutations must parse and round-trip
// or be rejected) and engine, and the /query + /series HTTP surface on
// the telemetry server, including the /alerts = /query contract.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "grammar_mutator.hpp"
#include "obs/alerts.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "util/error.hpp"

namespace failmine::obs {
namespace {

// A realistic unix-ms origin, aligned to the 1 m downsample buckets so
// boundary assertions are exact.
constexpr std::int64_t kT0 = 1'700'000'040'000'000 / 1000 * 1000;
static_assert(kT0 % 60'000 == 0);

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---- codec -------------------------------------------------------------

TEST(TsdbCodec, RoundTripRegularInterval) {
  GorillaChunk chunk;
  std::vector<TsdbPoint> expect;
  for (int i = 0; i < 200; ++i) {
    const TsdbPoint p{kT0 + i * 1000, i * 3.5};
    chunk.append(p.t_ms, p.value);
    expect.push_back(p);
  }
  const auto got = chunk.decode();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t_ms, expect[i].t_ms) << i;
    EXPECT_EQ(bits_of(got[i].value), bits_of(expect[i].value)) << i;
  }
}

TEST(TsdbCodec, FlatSeriesCostsUnderTwoBitsPerSample) {
  GorillaChunk chunk;
  for (int i = 0; i < 1000; ++i) chunk.append(kT0 + i * 1000, 42.0);
  // First sample is 128 bits raw; the second pays for the delta-of-delta
  // jump from 0 to 1000 ms ('110' + 14-bit zigzag + flat value = 18
  // bits); every later one is '0' (dod) + '0' (identical value) = 2 bits.
  EXPECT_EQ(chunk.size_bits(), 128u + 18u + 998u * 2u);
  EXPECT_LT(static_cast<double>(chunk.size_bytes()) / chunk.count(), 2.0);
}

TEST(TsdbCodec, RoundTripIrregularIntervals) {
  // Hits every delta-of-delta bucket: 0, 9-bit, 14-bit, 20-bit and the
  // 64-bit escape (a multi-day gap), plus shrinking deltas (negative
  // dod) and messy mantissas.
  const std::int64_t deltas[] = {1000, 1000, 1250,   997,     5,
                                 8000, 250,  100000, 1000000, 172800000,
                                 1000, 999,  1001,   1};
  GorillaChunk chunk;
  std::vector<TsdbPoint> expect;
  std::int64_t t = kT0;
  double v = 0.0;
  for (const auto d : deltas) {
    t += d;
    v += std::sin(static_cast<double>(t)) * 1e6;
    chunk.append(t, v);
    expect.push_back({t, v});
  }
  const auto got = chunk.decode();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t_ms, expect[i].t_ms) << i;
    EXPECT_EQ(bits_of(got[i].value), bits_of(expect[i].value)) << i;
  }
}

TEST(TsdbCodec, RoundTripCounterResets) {
  GorillaChunk chunk;
  const double values[] = {0, 100, 250, 5, 15, 1e9, 0, 3};
  std::vector<TsdbPoint> expect;
  std::int64_t t = kT0;
  for (const auto v : values) {
    chunk.append(t, v);
    expect.push_back({t, v});
    t += 1000;
  }
  const auto got = chunk.decode();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(bits_of(got[i].value), bits_of(expect[i].value)) << i;
}

TEST(TsdbCodec, RoundTripNonFiniteValuesBitwise) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -1.5};
  GorillaChunk chunk;
  std::int64_t t = kT0;
  for (const auto v : values) chunk.append(t += 1000, v);
  const auto got = chunk.decode();
  ASSERT_EQ(got.size(), std::size(values));
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(bits_of(got[i].value), bits_of(values[i])) << i;
}

TEST(TsdbCodec, SingleSampleChunk) {
  GorillaChunk chunk;
  chunk.append(kT0, 7.25);
  EXPECT_EQ(chunk.size_bits(), 128u);
  const auto got = chunk.decode();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].t_ms, kT0);
  EXPECT_EQ(got[0].value, 7.25);
}

// ---- pure range helpers ------------------------------------------------

TEST(TsdbHelpers, ValueAtRespectsStaleness) {
  const std::vector<TsdbPoint> pts = {{kT0, 1.0}, {kT0 + 10'000, 2.0}};
  EXPECT_FALSE(tsdb_value_at(pts, kT0 - 1).has_value());
  EXPECT_EQ(tsdb_value_at(pts, kT0).value(), 1.0);
  EXPECT_EQ(tsdb_value_at(pts, kT0 + 9'999).value(), 1.0);
  EXPECT_EQ(tsdb_value_at(pts, kT0 + 10'000).value(), 2.0);
  // Unbounded lookback vs a 5 s staleness horizon.
  EXPECT_EQ(tsdb_value_at(pts, kT0 + 60'000).value(), 2.0);
  EXPECT_FALSE(tsdb_value_at(pts, kT0 + 60'000, 5'000).has_value());
  EXPECT_TRUE(tsdb_value_at(pts, kT0 + 14'000, 5'000).has_value());
}

TEST(TsdbHelpers, IncreaseTelescopesOverTiledWindows) {
  // Counter sampled every second for 5 minutes with a bumpy profile.
  std::vector<TsdbPoint> pts;
  double v = 0.0;
  for (int i = 0; i <= 300; ++i) {
    v += (i % 7) + (i % 3 == 0 ? 10.0 : 0.0);
    pts.push_back({kT0 + i * 1000, v});
  }
  double tiled = 0.0;
  for (int w = 1; w <= 5; ++w) {
    const auto inc = tsdb_increase(pts, kT0 + w * 60'000, 60'000);
    ASSERT_TRUE(inc.has_value());
    EXPECT_EQ(inc->covered_ms, 60'000);
    tiled += inc->increase;
  }
  EXPECT_DOUBLE_EQ(tiled, pts.back().value - pts.front().value);
}

TEST(TsdbHelpers, IncreaseIsResetAware) {
  // 0 -> 10 -> 20 -> reset -> 5 -> 15: growth 10+10+5+10 = 35.
  const std::vector<TsdbPoint> pts = {{kT0, 0},
                                      {kT0 + 1000, 10},
                                      {kT0 + 2000, 20},
                                      {kT0 + 3000, 5},
                                      {kT0 + 4000, 15}};
  const auto inc = tsdb_increase(pts, kT0 + 4000, 10'000);
  ASSERT_TRUE(inc.has_value());
  EXPECT_DOUBLE_EQ(inc->increase, 35.0);
  // No sample in the window and no baseline -> nullopt.
  EXPECT_FALSE(tsdb_increase(pts, kT0 - 60'000, 10'000).has_value());
  // No sample in the window but a baseline exists -> flat counter.
  const auto flat = tsdb_increase(pts, kT0 + 90'000, 10'000);
  ASSERT_TRUE(flat.has_value());
  EXPECT_DOUBLE_EQ(flat->increase, 0.0);
}

// ---- store -------------------------------------------------------------

TsdbConfig test_config(MetricsRegistry* reg) {
  TsdbConfig config;
  config.registry = reg;
  return config;
}

TEST(TsdbStore, ScrapeCreatesSeriesForEveryInstrumentKind) {
  MetricsRegistry reg;
  reg.counter("c.total").add(5);
  reg.gauge("g.depth").set(3.5);
  reg.histogram("h.us", {10.0, 100.0}).observe(50.0);
  TsdbStore store(test_config(&reg));
  EXPECT_FALSE(store.has_data());
  store.scrape_once(kT0);
  EXPECT_TRUE(store.has_data());

  const auto names = store.series_names();
  const auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("c.total"));
  EXPECT_TRUE(has("g.depth"));
  EXPECT_TRUE(has("h.us.count"));
  EXPECT_TRUE(has("h.us.sum"));
  EXPECT_TRUE(has("h.us.bucket{le=\"10\"}"));
  EXPECT_TRUE(has("h.us.bucket{le=\"100\"}"));
  EXPECT_TRUE(has("h.us.bucket{le=\"+Inf\"}"));

  const auto stats = store.stats();
  EXPECT_EQ(stats.series, names.size());
  EXPECT_GE(stats.samples, names.size());
  EXPECT_EQ(stats.scrapes, 1u);
  EXPECT_EQ(stats.first_ms, kT0);
  EXPECT_EQ(stats.latest_ms, kT0);
  EXPECT_GT(stats.resident_bytes, 0u);

  // The store reports on itself through the registry it scrapes.
  EXPECT_GT(reg.gauge("tsdb.series").value(), 0.0);
  EXPECT_GT(reg.counter("tsdb.samples").value(), 0u);

  const auto infos = store.series_info();
  ASSERT_EQ(infos.size(), names.size());
  for (const auto& info : infos) {
    EXPECT_GT(info.samples, 0u);
    EXPECT_EQ(info.first_ms, kT0);
    EXPECT_EQ(info.last_ms, kT0);
  }
}

TEST(TsdbStore, RangeRateReconcilesWithCumulativeCounter) {
  // The PR's acceptance criterion in miniature: rate() over tiled 1 m
  // windows must reproduce the final cumulative counter exactly.
  MetricsRegistry reg;
  auto& counter = reg.counter("jobs.failed");
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);  // zero baseline before any traffic
  std::int64_t t = kT0;
  for (int i = 1; i <= 300; ++i) {
    counter.add(static_cast<std::uint64_t>((i % 13) + 1));
    t = kT0 + i * 1000;
    store.scrape_once(t);
  }
  double tiled = 0.0;
  for (int w = 1; w <= 5; ++w) {
    const auto inc = store.increase_over("jobs.failed", kT0 + w * 60'000,
                                         60'000);
    ASSERT_TRUE(inc.has_value());
    tiled += inc->increase;
  }
  EXPECT_DOUBLE_EQ(tiled, static_cast<double>(counter.value()));

  // The query engine agrees: sum of rate*step over the same grid.
  const auto q = parse_tsdb_query("rate(jobs.failed[1m])");
  const auto result =
      eval_tsdb_query(store, q, kT0 + 60'000, kT0 + 300'000, 60'000);
  ASSERT_EQ(result.series.size(), 1u);
  double via_rate = 0.0;
  for (const auto& p : result.series[0].points) via_rate += p.value * 60.0;
  EXPECT_NEAR(via_rate, static_cast<double>(counter.value()), 1e-6);
}

TEST(TsdbStore, ValueAtUsesStalenessHorizon) {
  MetricsRegistry reg;
  reg.gauge("g").set(4.0);
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  EXPECT_EQ(store.value_at("g", kT0).value(), 4.0);
  // Default staleness is 5 scrape intervals (5 s at the default 1 s).
  EXPECT_TRUE(store.value_at("g", kT0 + 4'000).has_value());
  EXPECT_FALSE(store.value_at("g", kT0 + 60'000).has_value());
  EXPECT_TRUE(store.value_at("g", kT0 + 60'000, 120'000).has_value());
  EXPECT_FALSE(store.value_at("missing", kT0).has_value());
}

TEST(TsdbStore, DownsamplingRetainsAlignedHistoryPastRawRing) {
  // Tiny raw ring + incompressible values force raw-chunk recycling;
  // the 10 s / 1 m rings must keep bucket-last samples covering the
  // whole span, and the merged read must stay sorted and deduplicated.
  MetricsRegistry reg;
  auto config = test_config(&reg);
  config.raw_chunks = 2;
  TsdbStore store(config);
  constexpr int kTicks = 600;
  for (int i = 0; i < kTicks; ++i) {
    reg.gauge("noisy").set(std::sin(static_cast<double>(i)) * 1e6);
    store.scrape_once(kT0 + i * 1000);
  }
  const auto all =
      store.read_series("noisy", kT0, kT0 + (kTicks - 1) * 1000);
  ASSERT_GT(all.size(), 2u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].t_ms, all[i].t_ms) << i;

  // Raw retention with 2x256B chunks of noisy doubles is far below the
  // full span, so history must have come from the downsample rings.
  EXPECT_LE(all.front().t_ms, kT0 + 120'000);
  EXPECT_EQ(all.back().t_ms, kT0 + (kTicks - 1) * 1000);

  // Downsampled points are the last sample of their aligned bucket: at
  // a 1 s scrape the 10 s ring keeps t % 10s == 9s and the 1 m ring
  // t % 60s == 59s. Everything else must be raw-resolution recent data.
  std::size_t downsampled = 0;
  for (const auto& p : all) {
    const std::int64_t off = p.t_ms - kT0;
    if (off % 10'000 == 9'000 || off % 60'000 == 59'000) ++downsampled;
  }
  EXPECT_GT(downsampled, 10u);

  // Every returned value is the one that was scraped at that instant.
  for (const auto& p : all) {
    const auto i = (p.t_ms - kT0) / 1000;
    EXPECT_EQ(bits_of(p.value),
              bits_of(std::sin(static_cast<double>(i)) * 1e6))
        << "t offset " << p.t_ms - kT0;
  }
}

TEST(TsdbStore, ReadWindowAddsTheBaselineAndMatchesAFullRead) {
  // read_window decodes only the chunks a window needs; across raw,
  // 10 s and 1 m rings it must return exactly what a full-history read
  // holds from `from` on, plus the last sample before `from`.
  MetricsRegistry reg;
  auto config = test_config(&reg);
  config.raw_chunks = 2;
  config.mid_chunks = 2;
  TsdbStore store(config);
  constexpr int kTicks = 1200;
  for (int i = 0; i < kTicks; ++i) {
    reg.gauge("noisy").set(std::sin(static_cast<double>(i)) * 1e6);
    store.scrape_once(kT0 + i * 1000);
  }
  const std::int64_t end = kT0 + (kTicks - 1) * 1000;
  const auto full =
      store.read_series("noisy", std::numeric_limits<std::int64_t>::min(), end);
  ASSERT_GT(full.size(), 2u);
  // Every sample and the millisecond after it, so some `from` lands
  // exactly on each ring's first sample.
  std::vector<std::int64_t> froms = {full.front().t_ms - 5'000, end + 5'000};
  for (const TsdbPoint& p : full) {
    froms.push_back(p.t_ms);
    froms.push_back(p.t_ms + 1);
  }
  for (const std::int64_t from : froms) {
    for (const std::int64_t to : {from + 2'000, from + 60'000, end}) {
      std::vector<TsdbPoint> want;
      for (std::size_t i = 0; i < full.size(); ++i) {
        const bool last_before = full[i].t_ms < from &&
                                 (i + 1 == full.size() || full[i + 1].t_ms >= from);
        if (full[i].t_ms <= to && (full[i].t_ms >= from || last_before))
          want.push_back(full[i]);
      }
      const auto got = store.read_window("noisy", from, to);
      ASSERT_EQ(got.size(), want.size()) << from - kT0 << ".." << to - kT0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].t_ms, want[i].t_ms);
        EXPECT_EQ(bits_of(got[i].value), bits_of(want[i].value));
      }
    }
  }
}

TEST(TsdbStore, SeriesBudgetCountsDrops) {
  MetricsRegistry reg;
  reg.counter("a").add(1);
  reg.counter("b").add(1);
  reg.counter("c").add(1);
  auto config = test_config(&reg);
  config.max_series = 2;
  TsdbStore store(config);
  store.scrape_once(kT0);
  const auto stats = store.stats();
  EXPECT_EQ(stats.series, 2u);
  EXPECT_GT(stats.dropped, 0u);
}

TEST(TsdbStore, NonMonotonicScrapesAreDropped) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  const auto before = store.stats();
  store.scrape_once(kT0);           // same timestamp
  store.scrape_once(kT0 - 5'000);   // goes backwards
  const auto after = store.stats();
  EXPECT_GT(after.dropped, before.dropped);
  ASSERT_EQ(store.read_series("c", kT0 - 10'000, kT0 + 10'000).size(), 1u);
}

TEST(TsdbStore, WallClockScrapesAllLandEvenWithinOneMillisecond) {
  MetricsRegistry reg;
  auto& g = reg.gauge("g");
  TsdbStore store(test_config(&reg));
  for (int i = 0; i < 20; ++i) {
    g.set(i);
    store.scrape_once();
  }
  const auto pts = store.read_series(
      "g", std::numeric_limits<std::int64_t>::min(), store.latest_ms());
  ASSERT_EQ(pts.size(), 20u);
  EXPECT_EQ(pts.back().value, 19.0);
  EXPECT_EQ(store.stats().dropped, 0u);
}

TEST(TsdbStore, BackgroundScraperStartsAndStops) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  TsdbStore store(test_config(&reg));
  store.start(/*interval_ms=*/50);
  EXPECT_TRUE(store.running());
  store.start(50);  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.stats().scrapes < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  store.stop();
  EXPECT_FALSE(store.running());
  store.stop();  // idempotent
  EXPECT_GE(store.stats().scrapes, 2u);
  EXPECT_TRUE(store.has_data());
}

// ---- query grammar -----------------------------------------------------

TEST(TsdbQueryParse, FullGrammar) {
  auto q = parse_tsdb_query("rate(stream.records_processed[1m])");
  EXPECT_EQ(q.fn, TsdbFn::kRate);
  EXPECT_EQ(q.agg, TsdbAgg::kNone);
  EXPECT_EQ(q.selector, "stream.records_processed");
  EXPECT_EQ(q.window_ms, 60'000);

  q = parse_tsdb_query("sum(rate(stream.shard*.processed[30s]))");
  EXPECT_EQ(q.agg, TsdbAgg::kSum);
  EXPECT_EQ(q.fn, TsdbFn::kRate);
  EXPECT_EQ(q.selector, "stream.shard*.processed");
  EXPECT_EQ(q.window_ms, 30'000);

  q = parse_tsdb_query("p99(stream.router.batch_us[500ms])");
  EXPECT_EQ(q.fn, TsdbFn::kQuantile);
  EXPECT_DOUBLE_EQ(q.quantile, 0.99);
  EXPECT_EQ(q.window_ms, 500);

  q = parse_tsdb_query("value(stream.queue_depth)");
  EXPECT_EQ(q.fn, TsdbFn::kValue);
  EXPECT_EQ(q.window_ms, 0);

  // Bare selector, increase, avg/min/max, hour windows.
  EXPECT_EQ(parse_tsdb_query("stream.queue_depth").fn, TsdbFn::kValue);
  EXPECT_EQ(parse_tsdb_query("increase(c[2h])").window_ms, 7'200'000);
  EXPECT_EQ(parse_tsdb_query("avg(value(g))").agg, TsdbAgg::kAvg);
  EXPECT_EQ(parse_tsdb_query("min(g)").agg, TsdbAgg::kMin);
  EXPECT_EQ(parse_tsdb_query("max(g)").agg, TsdbAgg::kMax);
}

TEST(TsdbQueryParse, RoundTripsThroughToString) {
  for (const char* expr :
       {"rate(a.b[1m])", "sum(rate(x*[30s]))", "p95(h.us[10s])",
        "value(g)", "avg(increase(c[1500ms]))", "rate(x)", "p99(h)",
        "sum(rate(x))", "sum by (twin) (rate(x{twin=~\"*\"}))",
        "max by (twin,zone) (p90(h{twin=~\"t*\"}[5m]))", "g[30s]"}) {
    const auto q = parse_tsdb_query(expr);
    const auto again = parse_tsdb_query(tsdb_query_to_string(q));
    EXPECT_EQ(again.agg, q.agg) << expr;
    EXPECT_EQ(again.fn, q.fn) << expr;
    EXPECT_EQ(again.selector, q.selector) << expr;
    EXPECT_EQ(again.by, q.by) << expr;
    EXPECT_EQ(again.window_ms, q.window_ms) << expr;
    EXPECT_DOUBLE_EQ(again.quantile, q.quantile) << expr;
  }
  // No window given, none rendered (the query step is used at eval).
  EXPECT_EQ(tsdb_query_to_string(parse_tsdb_query("rate(x)")), "rate(x)");
  EXPECT_EQ(tsdb_query_to_string(parse_tsdb_query("sum(rate(x))")),
            "sum(rate(x))");
}

TEST(TsdbQueryParse, RejectsMalformedExpressions) {
  for (const char* expr :
       {"", "frobnicate(m)", "p0(m)", "p100(m)", "rate(m", "rate(m))",
        "rate(m[5])x", "rate(m[5q])", "rate(m[-5s])", "sum()",
        "rate()", "m[weird",
        // Out-of-range and unitless windows: non-finite, past 2^53 ms,
        // rounding to 0 ms, or without a unit.
        "rate(x[infs])", "rate(x[1e300s])", "rate(x[nanm])",
        "rate(x[1e16ms])", "rate(x[0.4ms])", "rate(x[0s])", "rate(x[30])"}) {
    EXPECT_THROW((void)parse_tsdb_query(expr), failmine::ParseError) << expr;
  }
  // Durations at the edges of the accepted range.
  EXPECT_EQ(parse_tsdb_query("rate(x[0.5ms])").window_ms, 1);
  EXPECT_EQ(parse_tsdb_query("rate(x[9007199254740992ms])").window_ms,
            kMaxTsdbDurationMs);
  EXPECT_EQ(parse_tsdb_duration_ms("0s", "'for' duration", false), 0);
  EXPECT_THROW((void)parse_tsdb_duration_ms("0s", "window", true),
               failmine::ParseError);
}

TEST(TsdbQueryParse, SeededMutationsParseAndRoundTripOrThrow) {
  // Corpus: every query spelled in the tests, the README, the CLI's
  // trend reports, and the expressions of the built-in and fleet alert
  // rules.
  std::vector<std::string> corpus = {
      "rate(stream.records_processed[1m])",
      "sum(rate(stream.shard*.processed[30s]))",
      "p99(stream.router.batch_us[500ms])",
      "value(stream.queue_depth)",
      "stream.queue_depth",
      "increase(c[2h])",
      "avg(value(g))",
      "min(g)",
      "max(g)",
      "rate(a.b[1m])",
      "sum(rate(x*[30s]))",
      "p95(h.us[10s])",
      "avg(increase(c[1500ms]))",
      "rate(x)",
      "p99(h)",
      "sum(rate(x))",
      "g[30s]",
      "max by (twin,zone) (p90(h{twin=~\"t*\"}[5m]))",
      "sum(increase(shard*.processed[10s]))",
      "value(depth)",
      "p99(lat.us[1m])",
      "value(g)",
      "value(f{twin=~\"*\"})",
      "sum by (twin) (rate(stream.records_in{twin=~\"*\"}[1m]))",
      "avg(value(g{twin=\"t0\"}))",
      "increase(f[10s])",
      "sum(increase(f{twin=~\"*\"}[10s]))",
      "sum by (twin) (increase(f{twin=~\"*\"}[10s]))",
      "increase(f{twin=\"a\"}[10s])",
      "p99(lat.us{twin=~\"*\"}[1m])",
      "increase(tsdbe2e.jobs[1m])",
      "value(tsdbe2e.jobs)",
      "value(stream.window.failure_rate{twin=\"t3\"})",
      "rate(stream.records_in[10s])",
      "rate(stream.records_processed[10s])",
      "value(stream.window.failure_rate)",
      "p99(stream.router.batch_us[30s])",
      "sum(rate(stream.records_in{twin=~\"*\"}[10s]))",
      "sum by (twin) (rate(stream.records_processed{twin=~\"*\"}[10s]))",
      "sum by (twin) (value(stream.window.failure_rate{twin=~\"*\"}))",
      "rate(stream.records_dropped{twin=~\"*\"})",
      "value(stream.stalled_shards{twin=~\"*\"})",
      "rate(stream.records_dropped[30s])",
      "p99(stream.shard0.apply_us)",
      "sum by (twin) (increase(stream.records_dropped{twin=~\"*\"}[30s]))",
      "hostile{k=\"a\\\"b\"}",
  };
  for (const AlertRule& rule : default_alert_rules())
    corpus.push_back(tsdb_query_to_string(rule.query));
  // Every query in the repo parses as written.
  for (const std::string& expr : corpus)
    EXPECT_NO_THROW((void)parse_tsdb_query(expr)) << expr;

  test::GrammarMutator mutator(corpus, /*seed=*/20190624);
  std::size_t parsed = 0, rejected = 0, failures = 0;
  while (mutator.edits() < 100'000) {
    const std::string input = mutator.next();
    TsdbQuery q;
    try {
      q = parse_tsdb_query(input);
    } catch (const failmine::ParseError&) {
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string text = tsdb_query_to_string(q);
    try {
      if (!(parse_tsdb_query(text) == q) && ++failures <= 5)
        ADD_FAILURE() << testing::PrintToString(input) << " renders as "
                      << testing::PrintToString(text)
                      << ", which parses to a different query";
    } catch (const failmine::ParseError& e) {
      if (++failures <= 5)
        ADD_FAILURE() << testing::PrintToString(input) << " renders as "
                      << testing::PrintToString(text)
                      << ", which does not parse: " << e.what();
    }
  }
  EXPECT_EQ(failures, 0u);
  // The mutator must exercise both verdicts, not just one.
  EXPECT_GT(parsed, 1'000u);
  EXPECT_GT(rejected, 1'000u);
}

TEST(TsdbQueryParse, GlobMatch) {
  EXPECT_TRUE(tsdb_glob_match("*", "anything"));
  EXPECT_TRUE(tsdb_glob_match("stream.shard*.processed",
                              "stream.shard12.processed"));
  EXPECT_FALSE(tsdb_glob_match("stream.shard*.processed",
                               "stream.shard12.occupancy"));
  EXPECT_TRUE(tsdb_glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(tsdb_glob_match("a*b*c", "a-x-b-y"));
  EXPECT_TRUE(tsdb_glob_match("exact", "exact"));
  EXPECT_FALSE(tsdb_glob_match("exact", "exactly"));
}

// ---- query engine ------------------------------------------------------

TEST(TsdbQueryEval, WildcardSumAggregatesPointwise) {
  MetricsRegistry reg;
  auto& a = reg.counter("shard0.processed");
  auto& b = reg.counter("shard1.processed");
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  for (int i = 1; i <= 60; ++i) {
    a.add(2);
    b.add(3);
    store.scrape_once(kT0 + i * 1000);
  }
  const auto q = parse_tsdb_query("sum(increase(shard*.processed[10s]))");
  const auto result =
      eval_tsdb_query(store, q, kT0 + 10'000, kT0 + 60'000, 10'000);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_EQ(result.series[0].name, "sum(increase(shard*.processed[10s]))");
  ASSERT_EQ(result.series[0].points.size(), 6u);
  for (const auto& p : result.series[0].points)
    EXPECT_DOUBLE_EQ(p.value, 50.0);  // (2+3) per second over 10 s
}

TEST(TsdbQueryEval, ValueQueriesReadGauges) {
  MetricsRegistry reg;
  auto& g = reg.gauge("depth");
  TsdbStore store(test_config(&reg));
  for (int i = 0; i < 10; ++i) {
    g.set(static_cast<double>(i));
    store.scrape_once(kT0 + i * 1000);
  }
  const auto q = parse_tsdb_query("value(depth)");
  const auto result = eval_tsdb_query(store, q, kT0 + 9000, kT0 + 9000, 1000);
  ASSERT_EQ(result.series.size(), 1u);
  ASSERT_EQ(result.series[0].points.size(), 1u);
  EXPECT_DOUBLE_EQ(result.series[0].points[0].value, 9.0);
}

TEST(TsdbQueryEval, WindowedQuantileSeesOnlyTheSpike) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat.us", {100.0, 1000.0, 100000.0});
  TsdbStore store(test_config(&reg));
  // Minute 1: a flood of fast observations.
  for (int i = 0; i < 100000; ++i) h.observe(10.0);
  store.scrape_once(kT0 + 60'000);
  // Minute 2: a small absolute number of very slow ones.
  for (int i = 0; i < 50; ++i) h.observe(50'000.0);
  store.scrape_once(kT0 + 120'000);

  // Lifetime p99 stays in the fastest bucket (50 of 100050 is well
  // under the 99th percentile), but the trailing 1 m window contains
  // only the slow deltas.
  const auto q = parse_tsdb_query("p99(lat.us[1m])");
  const auto result =
      eval_tsdb_query(store, q, kT0 + 120'000, kT0 + 120'000, 60'000);
  ASSERT_EQ(result.series.size(), 1u);
  ASSERT_EQ(result.series[0].points.size(), 1u);
  EXPECT_GT(result.series[0].points[0].value, 1000.0);

  // A window with no observations abstains instead of reporting 0.
  const auto quiet = parse_tsdb_query("p99(lat.us[10s])");
  EXPECT_TRUE(eval_tsdb_query(store, quiet, kT0 + 600'000, kT0 + 600'000,
                              10'000)
                  .series.empty());
}

TEST(TsdbQueryEval, RateDividesIncreaseByTheCoveredSpan) {
  MetricsRegistry reg;
  auto& drops = reg.counter("drops");
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  const auto instant = [&](const char* expr) {
    const auto r = eval_tsdb_query(store, parse_tsdb_query(expr),
                                   store.latest_ms(), store.latest_ms(),
                                   60'000);
    return r.series.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : r.series[0].points.back().value;
  };
  // One scrape covers no time: neither rate nor increase has a value.
  EXPECT_TRUE(std::isnan(instant("rate(drops)")));
  EXPECT_TRUE(std::isnan(instant("increase(drops)")));
  EXPECT_EQ(instant("value(drops)"), 0.0);

  // Two scrapes 20 s apart, +30: the series' first 60 s window covers
  // 20 s, so rate is 30 / 20 s rather than an under-reported 30 / 60 s.
  drops.add(30);
  store.scrape_once(kT0 + 20'000);
  EXPECT_DOUBLE_EQ(instant("rate(drops)"), 1.5);
  EXPECT_DOUBLE_EQ(instant("increase(drops)"), 30.0);
  // A baseline precedes a 10 s window: ÷ the whole window.
  EXPECT_DOUBLE_EQ(instant("rate(drops[10s])"), 3.0);
}

TEST(TsdbQueryEval, JsonShapes) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.5);
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  const auto q = parse_tsdb_query("value(g)");
  const auto result = eval_tsdb_query(store, q, kT0, kT0, 1000);
  const auto json = tsdb_query_json("value(g)", kT0, kT0, 1000, result);
  EXPECT_NE(json.find("\"expr\":\"value(g)\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"series\":[{\"name\":\"g\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("1.5"), std::string::npos) << json;

  const auto series = tsdb_series_json(store);
  EXPECT_NE(series.find("\"stats\":"), std::string::npos) << series;
  EXPECT_NE(series.find("\"name\":\"g\""), std::string::npos) << series;
  EXPECT_NE(series.find("\"type\":\"gauge\""), std::string::npos) << series;
}

TEST(TsdbQueryEval, SparklineAndTrendReport) {
  std::vector<TsdbPoint> ramp;
  for (int i = 0; i < 40; ++i)
    ramp.push_back({kT0 + i * 1000, static_cast<double>(i)});
  const auto spark = render_sparkline(ramp, 8);
  EXPECT_FALSE(spark.empty());
  EXPECT_NE(spark.find("\xe2\x96\x81"), std::string::npos);  // ▁ low start
  EXPECT_NE(spark.find("\xe2\x96\x88"), std::string::npos);  // █ high end
  EXPECT_TRUE(render_sparkline({}, 8).find_first_not_of(' ') ==
              std::string::npos);

  MetricsRegistry reg;
  auto& c = reg.counter("jobs");
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  for (int i = 1; i <= 120; ++i) {
    c.add(static_cast<std::uint64_t>(i));
    store.scrape_once(kT0 + i * 1000);
  }
  const auto report = tsdb_trend_report(
      store, {"rate(jobs[10s])", "nonsense(((", "value(not.there)"});
  EXPECT_NE(report.find("rate(jobs[10s])"), std::string::npos) << report;
  // Unparseable and unmatched expressions are skipped, not rendered.
  EXPECT_EQ(report.find("nonsense"), std::string::npos) << report;
  EXPECT_EQ(report.find("not.there"), std::string::npos) << report;
}

// ---- labels ------------------------------------------------------------

TEST(TsdbStore, PerFamilyLabelBudgetDropsAndCounts) {
  MetricsRegistry reg;
  for (const char* twin : {"a", "b", "c", "d", "e"})
    reg.counter("f", {{"twin", twin}}).add(1);
  auto config = test_config(&reg);
  config.max_label_sets_per_family = 2;
  TsdbStore store(config);
  store.scrape_once(kT0);
  EXPECT_EQ(store.stats().dropped_series, 3u);
  EXPECT_GT(reg.counter_value("tsdb.dropped_series"), 0u);

  // The two admitted label sets stay fully queryable.
  const auto q = parse_tsdb_query("value(f{twin=~\"*\"})");
  EXPECT_EQ(eval_tsdb_query(store, q, kT0, kT0, 1000).series.size(), 2u);

  // The budget is per family: a fresh family gets its own allowance,
  // while f's over-budget sets are dropped again on every scrape.
  reg.counter("g", {{"twin", "a"}}).add(1);
  reg.counter("g", {{"twin", "b"}}).add(1);
  store.scrape_once(kT0 + 1000);
  const auto q2 = parse_tsdb_query("value(g{twin=~\"*\"})");
  EXPECT_EQ(
      eval_tsdb_query(store, q2, kT0 + 1000, kT0 + 1000, 1000).series.size(),
      2u);
  EXPECT_EQ(store.stats().dropped_series, 6u);
  EXPECT_NE(store.stats_json().find("\"dropped_series\":"),
            std::string::npos);
}

TEST(TsdbQueryParse, LabelSelectorsAndByClause) {
  auto q = parse_tsdb_query(
      "sum by (twin) (rate(stream.records_in{twin=~\"*\"}[1m]))");
  EXPECT_EQ(q.agg, TsdbAgg::kSum);
  EXPECT_EQ(q.fn, TsdbFn::kRate);
  ASSERT_EQ(q.by.size(), 1u);
  EXPECT_EQ(q.by[0], "twin");
  EXPECT_EQ(q.window_ms, 60'000);
  EXPECT_EQ(tsdb_query_to_string(q),
            "sum by (twin) (rate(stream.records_in{twin=~\"*\"}[1m]))");

  // Re-parsing the canonical rendering is a fixed point.
  const auto again = parse_tsdb_query(tsdb_query_to_string(q));
  EXPECT_EQ(again.by, q.by);
  EXPECT_EQ(again.selector, q.selector);

  EXPECT_TRUE(parse_tsdb_query("avg(value(g{twin=\"t0\"}))").by.empty());

  for (const char* expr :
       {"sum by (twin) (sum(x))",       // nested aggregation
        "by (twin) (value(x))",         // by without an aggregator
        "sum by () (value(x))",         // empty by list
        "value(f{twin=\"t0\")",         // unterminated block
        "value(f{twin~\"t0\"})",        // bad matcher operator
        "value(f{twin=t0})"}) {         // unquoted value
    EXPECT_THROW((void)parse_tsdb_query(expr), failmine::ParseError) << expr;
  }
}

TEST(TsdbQueryParse, SelectorMatchingSemantics) {
  const auto sel = parse_tsdb_selector("stream.*{twin=~\"t*\",zone=\"z1\"}");
  EXPECT_TRUE(sel.has_block);
  EXPECT_EQ(sel.family, "stream.*");
  EXPECT_TRUE(sel.matches_key("twin"));
  EXPECT_FALSE(sel.matches_key("le"));

  // Matchers: `=~` needs the label present and glob-matching; `=` treats
  // an absent label as ""; extra labels never block a match.
  EXPECT_TRUE(tsdb_selector_matches(
      sel, "stream.records_in{twin=\"t3\",zone=\"z1\",extra=\"x\"}"));
  EXPECT_FALSE(tsdb_selector_matches(sel, "stream.records_in{zone=\"z1\"}"));
  EXPECT_FALSE(
      tsdb_selector_matches(sel, "stream.records_in{twin=\"t3\"}"));
  EXPECT_FALSE(
      tsdb_selector_matches(sel, "other.records_in{twin=\"t3\",zone=\"z1\"}"));

  const auto exact = parse_tsdb_selector("g{zone=\"\"}");
  EXPECT_TRUE(tsdb_selector_matches(exact, "g"));  // absent matches ""
  const auto bare = parse_tsdb_selector("g");
  EXPECT_FALSE(bare.has_block);
  EXPECT_TRUE(tsdb_selector_matches(bare, "g"));
}

TEST(TsdbQueryEval, LabelSelectorsAndByGrouping) {
  MetricsRegistry reg;
  auto& a = reg.counter("f", {{"twin", "a"}});
  auto& b = reg.counter("f", {{"twin", "b"}});
  auto& bare = reg.counter("f");
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  for (int i = 1; i <= 10; ++i) {
    a.add(2);
    b.add(3);
    bare.add(5);
    store.scrape_once(kT0 + i * 1000);
  }

  // Blockless selector: legacy full-name glob, labeled series invisible.
  const auto legacy = parse_tsdb_query("increase(f[10s])");
  auto result = eval_tsdb_query(store, legacy, kT0 + 10'000, kT0 + 10'000,
                                10'000);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_DOUBLE_EQ(result.series[0].points[0].value, 50.0);

  // Block selector: label-aware, bare series invisible to `=~`.
  const auto summed =
      parse_tsdb_query("sum(increase(f{twin=~\"*\"}[10s]))");
  result = eval_tsdb_query(store, summed, kT0 + 10'000, kT0 + 10'000, 10'000);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_DOUBLE_EQ(result.series[0].points[0].value, 50.0);  // 20 + 30

  // by (twin): one output series per label value, each carrying the
  // group's label block in its name.
  const auto grouped =
      parse_tsdb_query("sum by (twin) (increase(f{twin=~\"*\"}[10s]))");
  result = eval_tsdb_query(store, grouped, kT0 + 10'000, kT0 + 10'000,
                           10'000);
  ASSERT_EQ(result.series.size(), 2u);
  for (const auto& series : result.series) {
    ASSERT_EQ(series.points.size(), 1u);
    if (series.name.find("{twin=\"a\"}") != std::string::npos)
      EXPECT_DOUBLE_EQ(series.points[0].value, 20.0);
    else if (series.name.find("{twin=\"b\"}") != std::string::npos)
      EXPECT_DOUBLE_EQ(series.points[0].value, 30.0);
    else
      ADD_FAILURE() << "unexpected group " << series.name;
  }

  // Exact matcher: a single series.
  const auto exact = parse_tsdb_query("increase(f{twin=\"a\"}[10s])");
  result = eval_tsdb_query(store, exact, kT0 + 10'000, kT0 + 10'000, 10'000);
  ASSERT_EQ(result.series.size(), 1u);
  EXPECT_DOUBLE_EQ(result.series[0].points[0].value, 20.0);
}

TEST(TsdbQueryEval, LabeledHistogramQuantilesStayPerTwin) {
  MetricsRegistry reg;
  auto& fast = reg.histogram("lat.us", {{"twin", "a"}},
                             {100.0, 1000.0, 100000.0});
  auto& slow = reg.histogram("lat.us", {{"twin", "b"}},
                             {100.0, 1000.0, 100000.0});
  TsdbStore store(test_config(&reg));
  store.scrape_once(kT0);
  for (int i = 0; i < 1000; ++i) fast.observe(10.0);
  for (int i = 0; i < 1000; ++i) slow.observe(50'000.0);
  store.scrape_once(kT0 + 60'000);

  // Each twin's buckets stay grouped per label set: twin a's p99 lands
  // in its fastest bucket, twin b's in the slow one — no cross-twin
  // bucket merging.
  const auto q = parse_tsdb_query("p99(lat.us{twin=~\"*\"}[1m])");
  const auto result =
      eval_tsdb_query(store, q, kT0 + 60'000, kT0 + 60'000, 60'000);
  ASSERT_EQ(result.series.size(), 2u);
  for (const auto& series : result.series) {
    ASSERT_EQ(series.points.size(), 1u) << series.name;
    if (series.name.find("{twin=\"a\"}") != std::string::npos)
      EXPECT_LE(series.points[0].value, 100.0) << series.name;
    else
      EXPECT_GT(series.points[0].value, 1000.0) << series.name;
  }

  // An exact matcher resolves one labeled base.
  const auto b = eval_tsdb_query(
      store, parse_tsdb_query("p99(lat.us{twin=\"b\"}[1m])"), kT0 + 60'000,
      kT0 + 60'000, 60'000);
  ASSERT_EQ(b.series.size(), 1u);
  EXPECT_GT(b.series[0].points[0].value, 1000.0);
}

// ---- concurrency -------------------------------------------------------

TEST(TsdbConcurrency, ConcurrentScrapeAndReadIsTearFree) {
  MetricsRegistry reg;
  auto& c = reg.counter("hot");
  auto& g = reg.gauge("wobble");
  auto config = test_config(&reg);
  config.raw_chunks = 2;  // force constant chunk recycling under readers
  TsdbStore store(config);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto to = store.latest_ms();
        const auto pts = store.read_series("hot", 0, to + 1'000'000);
        for (std::size_t i = 1; i < pts.size(); ++i)
          ASSERT_LT(pts[i - 1].t_ms, pts[i].t_ms);
        // Counters are monotone; a torn read would show regressions.
        for (std::size_t i = 1; i < pts.size(); ++i)
          ASSERT_LE(pts[i - 1].value, pts[i].value);
        (void)store.value_at("wobble", to);
        (void)store.increase_over("hot", to, 30'000);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::int64_t t = kT0;
  for (int i = 0; i < 4000; ++i) {
    c.add(static_cast<std::uint64_t>(i % 17) + 1);
    g.set(std::sin(static_cast<double>(i)) * 1e6);
    store.scrape_once(t += 1000);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.stats().scrapes, 4000u);
}

TEST(TsdbConcurrency, LabelCardinalityPressureStaysTearFree) {
  // Two twins' hot counters (inside the per-family budget) advance
  // under concurrent readers while a rotating probe family blows its
  // label-set budget on every scrape — eviction accounting must not
  // tear the surviving labeled series.
  MetricsRegistry reg;
  auto& t0 = reg.counter("hot", {{"twin", "t0"}});
  auto& t1 = reg.counter("hot", {{"twin", "t1"}});
  auto config = test_config(&reg);
  config.raw_chunks = 2;  // force constant chunk recycling under readers
  config.max_label_sets_per_family = 4;
  TsdbStore store(config);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const std::string name =
          r % 2 == 0 ? "hot{twin=\"t0\"}" : "hot{twin=\"t1\"}";
      while (!stop.load(std::memory_order_acquire)) {
        const auto to = store.latest_ms();
        const auto pts = store.read_series(name, 0, to + 1'000'000);
        for (std::size_t i = 1; i < pts.size(); ++i) {
          ASSERT_LT(pts[i - 1].t_ms, pts[i].t_ms);
          // Counters are monotone; a torn read would show regressions.
          ASSERT_LE(pts[i - 1].value, pts[i].value);
        }
        (void)store.increase_over(name, to, 30'000);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::int64_t t = kT0;
  for (int i = 0; i < 3000; ++i) {
    t0.add(static_cast<std::uint64_t>(i % 7) + 1);
    t1.add(static_cast<std::uint64_t>(i % 11) + 1);
    // 8 probe label sets rotate through a 4-set budget: every scrape
    // admits some and drops the rest, exercising the eviction path
    // while the readers traverse the hot series.
    reg.counter("probe", {{"zone", "z" + std::to_string(i % 8)}}).add(1);
    store.scrape_once(t += 1000);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.scrapes, 3000u);
  EXPECT_GT(stats.dropped_series, 0u);
  // The budget never evicted the hot twins: both are still readable
  // right up to the final scrape tick (chunk recycling trims history,
  // never the live head).
  for (const char* name : {"hot{twin=\"t0\"}", "hot{twin=\"t1\"}"}) {
    const auto survivors = store.read_series(name, 0, t + 1);
    ASSERT_FALSE(survivors.empty()) << name;
    EXPECT_EQ(survivors.back().t_ms, t) << name;
  }
}

// ---- HTTP surface ------------------------------------------------------

TEST(TsdbServeE2E, QueryAndSeriesEndpoints) {
  TelemetryServer server;
  server.start();
  const auto port = server.port();

  // 404 until the global store has data (this is the first test in the
  // binary that touches obs::tsdb()).
  EXPECT_EQ(http_get(port, "/query?expr=value(x)").status, 404);
  EXPECT_EQ(http_get(port, "/series").status, 404);

  metrics().counter("tsdbe2e.jobs").add(10);
  tsdb().scrape_once(kT0);
  metrics().counter("tsdbe2e.jobs").add(20);
  tsdb().scrape_once(kT0 + 60'000);

  auto r = http_get(port, "/query?expr=increase(tsdbe2e.jobs%5B1m%5D)");
  EXPECT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("tsdbe2e.jobs"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("20"), std::string::npos) << r.body;

  // Instant query spelling (start=end) and an explicit range.
  r = http_get(port, "/query?expr=value(tsdbe2e.jobs)");
  EXPECT_EQ(r.status, 200) << r.body;
  r = http_get(port,
               "/query?expr=value(tsdbe2e.jobs)&start=" +
                   std::to_string(kT0 / 1000) +
                   "&end=" + std::to_string(kT0 / 1000 + 60) + "&step=30");
  EXPECT_EQ(r.status, 200) << r.body;

  EXPECT_EQ(http_get(port, "/query").status, 400);
  r = http_get(port, "/query?expr=frobnicate(m)");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("tsdb query"), std::string::npos) << r.body;
  EXPECT_EQ(http_get(port, "/query?expr=value(x)&step=-1").status, 400);
  // A NaN or out-of-range time would wrap the millisecond step grid.
  EXPECT_EQ(http_get(port, "/query?expr=value(x)&start=nan&step=1").status,
            400);
  EXPECT_EQ(http_get(port, "/query?expr=value(x)&end=1e300&step=1").status,
            400);

  r = http_get(port, "/series");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"tsdbe2e.jobs\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"stats\":"), std::string::npos) << r.body;

  // The per-endpoint request counters saw this traffic.
  EXPECT_GT(metrics().counter("obs.serve.requests{path=\"/query\"}").value(),
            0u);
  EXPECT_GT(metrics().counter("obs.serve.requests{path=\"/series\"}").value(),
            0u);
  server.stop();
}

TEST(TsdbServeE2E, AlertsEqualQueryAtTheLatestScrape) {
  // The /alerts = /query contract over HTTP: with the global store
  // attached, every /alerts group's value is the same-named series of
  // `GET /query?expr=<expr>&step=60` at the newest scrape, bit for bit
  // (both surfaces print the double at round-trip precision).
  const std::int64_t t0 = kT0 + 3'600'000;  // after TsdbServeE2E's scrapes
  alerts().set_history(&tsdb());
  alerts().set_rules(parse_alert_rules(
      "depth: value(contract.depth{twin=~\"*\"}) > 1\n"
      "burn: rate(contract.drops{twin=~\"*\"}) > 0\n"
      "burn10: rate(contract.drops{twin=~\"*\"}[10s]) > 0\n"
      "slow: p99(contract.lat_us{twin=~\"*\"}) > 100\n"
      "fleet: sum by (twin) (increase(contract.drops{twin=~\"*\"})) > 5\n"));
  for (int step = 1; step <= 3; ++step) {
    for (const char* twin : {"t0", "t1"}) {
      metrics().gauge("contract.depth", {{"twin", twin}}).set(step * 0.7);
      metrics().counter("contract.drops", {{"twin", twin}}).add(3 * step);
      metrics()
          .histogram("contract.lat_us", {{"twin", twin}}, {10.0, 1000.0})
          .observe(step * 97.0);
    }
    tsdb().scrape_once(t0 + step * 7'000);
  }
  alerts().evaluate_now();

  TelemetryServer server;
  server.start();
  const std::string alerts_body = http_get(server.port(), "/alerts").body;
  std::size_t checked = 0;
  for (const AlertStatus& status : alerts().status()) {
    ASSERT_TRUE(status.has_value) << status.series;
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "[%.3f,", tsdb().latest_ms() / 1000.0);
    const std::string point = stamp + json_number(status.last_value) + "]";
    // The /alerts row carries the engine's value...
    std::string row = "\"series\":";
    append_json_string(row, status.series);
    row += ",\"state\":";
    const std::size_t at = alerts_body.find(row);
    ASSERT_NE(at, std::string::npos) << status.series;
    EXPECT_NE(alerts_body.find("\"value\":" + json_number(status.last_value),
                               at),
              std::string::npos)
        << status.series;
    // ...and /query names the same series with the same value last.
    std::string expr;
    for (char c : tsdb_query_to_string(status.rule.query)) {
      char enc[4];
      std::snprintf(enc, sizeof(enc), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      expr += enc;
    }
    const HttpResponse r = http_get(server.port(), "/query?expr=" + expr +
                                                       "&step=60");
    ASSERT_EQ(r.status, 200) << r.body;
    std::string name = "{\"name\":";
    append_json_string(name, status.series);
    const std::size_t series_at = r.body.find(name);
    ASSERT_NE(series_at, std::string::npos) << status.series << " " << r.body;
    const std::size_t end = r.body.find("]]}", series_at);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(r.body.substr(0, end + 1).rfind(point), end + 1 - point.size())
        << status.series << " wants " << point << " last in " << r.body;
    ++checked;
  }
  EXPECT_EQ(checked, 10u);  // 2 twins x 5 rules
  server.stop();
  alerts().set_rules({});
  alerts().set_history(nullptr);
}

}  // namespace
}  // namespace failmine::obs
