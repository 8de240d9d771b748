// perfbench/tests/test_helpers.cpp
//
// Tests of the benchmark's own pure helpers: order statistics, the answer
// digests, /proc/self/status parsing, registry deltas and span self time.
// Build and run them with: python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "answers.hpp"
#include "helpers.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenSingleAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.5}), 7.5);
  EXPECT_EQ(median({}), 0.0);
}

// Expected values are what Python's statistics.quantiles(data, n=4)
// returns: the spread of a benchmark run is judged with it.
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const Quartiles ten = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  const Quartiles five = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(Quartiles, SingleValueAndEmpty) {
  const Quartiles one = quartiles({4.0});
  EXPECT_EQ(one.q1, 4.0);
  EXPECT_EQ(one.q3, 4.0);
  const Quartiles none = quartiles({});
  EXPECT_EQ(none.q1, 0.0);
  EXPECT_EQ(none.q3, 0.0);
}

TEST(Digest, Fnv1aReferenceValues) {
  EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ULL);
  Digest a;
  a.add_bytes("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hex64(a.value()), "af63dc4c8601ec8c");
}

TEST(Digest, DoublesCompareByBitPattern) {
  Digest zero;
  Digest negative_zero;
  Digest one;
  Digest next_after_one;
  zero.add_f64(0.0);
  negative_zero.add_f64(-0.0);
  one.add_f64(1.0);
  next_after_one.add_f64(std::nextafter(1.0, 2.0));
  EXPECT_NE(zero.value(), negative_zero.value());
  EXPECT_NE(one.value(), next_after_one.value());
}

QueryAnswers sample_answers() {
  QueryAnswers a;
  a.summary.jobs = 10;
  a.summary.span_days = 2001.0;
  a.summary.total_core_hours = 1234.5;
  a.exits.total_jobs = 10;
  a.exits.total_failures = 3;
  a.exits.rows.push_back({failmine::joblog::ExitClass{}, 10, 99.5, 1.0, 0.0});
  a.users.push_back({1, 5, 2, 2, 0, 10.25, 4.5});
  a.ras.total_events = 7;
  a.ras.by_severity = {5, 1, 1};
  a.submissions_by_hour[3] = 4;
  a.monthly_submissions = {1, 2, 3};
  return a;
}

TEST(AnswerDigest, OneDigestPerQueryEngineAnalysis) {
  const NamedDigests digests = digest_queries(sample_answers());
  EXPECT_EQ(digests.size(), 12u);
  EXPECT_EQ(mismatches(digests, digest_queries(sample_answers())), 0u);
}

TEST(AnswerDigest, OneUlpInOneAnswerIsOneMismatch) {
  QueryAnswers changed = sample_answers();
  changed.exits.rows[0].core_hours = std::nextafter(99.5, 100.0);
  EXPECT_EQ(mismatches(digest_queries(sample_answers()),
                       digest_queries(changed)),
            1u);
}

TEST(AnswerDigest, MissingAnswersAreMismatches) {
  const NamedDigests want = digest_queries(sample_answers());
  EXPECT_EQ(mismatches(want, {}), want.size());
}

TEST(AnswerDigest, TakeawaysCarryTheirMeasuredValue) {
  failmine::core::Takeaway t;
  t.id = "T-A1";
  t.measured = 0.5;
  const NamedDigests want = digest_takeaways({t});
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].first, "takeaway.T-A1");
  t.measured = std::nextafter(0.5, 1.0);
  EXPECT_EQ(mismatches(want, digest_takeaways({t})), 1u);
}

TEST(AnswerDigest, StreamDigestCoversTheParityFieldsOnly) {
  StreamFacts facts;
  facts.interruptions = 2;
  facts.mtti.intervals_days = {1.5, 2.5};
  facts.exits.rows.push_back({failmine::joblog::ExitClass{}, 4, 1.0, 1.0, 0.0});
  const std::uint64_t base = digest_stream(facts);

  StreamFacts other = facts;
  other.mtti.intervals_days[1] = std::nextafter(2.5, 3.0);
  EXPECT_NE(digest_stream(other), base);
  other = facts;
  other.window_end += 1;
  EXPECT_NE(digest_stream(other), base);
  other = facts;
  other.exits.rows[0].jobs += 1;
  EXPECT_NE(digest_stream(other), base);
  // The shards sum core-hours in another order than the batch pass.
  other = facts;
  other.exits.rows[0].core_hours = 2.0;
  EXPECT_EQ(digest_stream(other), base);
}

TEST(ProcStatus, ParsesKilobyteFields) {
  const std::string text =
      "Name:\tperfbench\nVmPeak:\t  204800 kB\nVmHWM:\t    2048 kB\n"
      "VmRSS:\t    1024 kB\nThreads:\t1\n";
  EXPECT_EQ(status_kb(text, "VmHWM").value_or(0), 2048u);
  EXPECT_EQ(status_kb(text, "VmRSS").value_or(0), 1024u);
  EXPECT_FALSE(status_kb(text, "VmSwap").has_value());
  EXPECT_FALSE(status_kb(text, "VmRS").has_value());     // a key's prefix
  EXPECT_FALSE(status_kb(text, "Threads").has_value());  // no kB unit
  EXPECT_FALSE(status_kb("VmRSS:\t abc kB\n", "VmRSS").has_value());
  EXPECT_EQ(status_kb("VmRSS: 5 kB", "VmRSS").value_or(0), 5u);
}

TEST(ProcStatus, ReadsThisProcess) {
  std::ifstream in("/proc/self/status");
  std::ostringstream text;
  text << in.rdbuf();
  const auto rss = status_kb(text.str(), "VmRSS");
  const auto hwm = status_kb(text.str(), "VmHWM");
  ASSERT_TRUE(rss.has_value());
  ASSERT_TRUE(hwm.has_value());
  EXPECT_GT(*rss, 0u);
  EXPECT_GE(*hwm, *rss);
}

TEST(MetricsDelta, ReadsCountersAndHistogramsPerRepetition) {
  failmine::obs::MetricsSample before;
  failmine::obs::MetricsSample after;
  before.counters = {{"a", 5}, {"reset", 50}};
  after.counters = {{"a", 8}, {"b", 2}, {"reset", 4}};
  failmine::obs::HistogramSample was;
  was.upper_bounds = {10, 100};
  was.buckets = {1, 2, 0};
  was.count = 3;
  was.sum = 60;
  failmine::obs::HistogramSample now = was;
  now.buckets = {3, 2, 1};
  now.count = 6;
  now.sum = 300;
  before.histograms = {{"h", was}};
  after.histograms = {{"h", now}};

  const MetricsDelta delta(before, after);
  EXPECT_EQ(delta.counter("a"), 3u);
  EXPECT_EQ(delta.counter("b"), 2u);
  EXPECT_EQ(delta.counter("reset"), 4u);  // zeroed in between
  EXPECT_EQ(delta.counter("missing"), 0u);
  EXPECT_EQ(delta.histogram("h").buckets,
            (std::vector<std::uint64_t>{2, 0, 1}));
  EXPECT_EQ(delta.histogram("h").count, 3u);
  EXPECT_DOUBLE_EQ(delta.histogram("h").sum, 240.0);
  // Two of the three new observations sit in (0, 10]: the median lies
  // 1.5/2 of the way through that bucket.
  EXPECT_DOUBLE_EQ(delta.quantile("h", 0.5), 7.5);
  EXPECT_EQ(delta.quantile("missing", 0.99), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // [10, 30) and [20, 40) overlap; [90, 120) is clipped to the parent.
  EXPECT_EQ(self_time_us(0, 100, {{10, 30}, {20, 40}, {90, 120}}), 60);
  EXPECT_EQ(self_time_us(0, 100, {}), 100);
  EXPECT_EQ(self_time_us(0, 100, {{0, 100}}), 0);
}

}  // namespace
}  // namespace perfbench
