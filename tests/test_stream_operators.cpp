// Tests for the incremental streaming operators: rolling windows, the
// streaming interruption clusterer (vs the batch filter), and shard
// routing. The shards' E02 partials are checked against a naive
// reference in test_columnar_differential.cpp.

#include "stream/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.hpp"
#include "topology/location.hpp"
#include "util/error.hpp"

namespace failmine::stream {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

const sim::SimResult& trace() {
  static const sim::SimResult result = [] {
    sim::SimConfig config = sim::SimConfig::test_scale();
    config.scale = 0.004;
    return sim::simulate(config);
  }();
  return result;
}

// ---- RollingWindow ----------------------------------------------------

TEST(RollingWindow, CountsOnlyTrailingBuckets) {
  RollingWindow<1> w(/*bucket_seconds=*/10, /*bucket_count=*/3);
  EXPECT_EQ(w.window_seconds(), 30);
  w.add(5, 0);    // bucket 0
  w.add(15, 0);   // bucket 1
  w.add(25, 0);   // bucket 2
  EXPECT_EQ(w.totals(25)[0], 3u);
  // Advancing "now" ages one bucket out of the 3-bucket window at a time:
  // at 35 the window is buckets [1,3], at 45 it is [2,4], at 55 it is [3,5].
  EXPECT_EQ(w.totals(35)[0], 2u);
  EXPECT_EQ(w.totals(45)[0], 1u);
  EXPECT_EQ(w.totals(55)[0], 0u);
}

TEST(RollingWindow, ReclaimedSlotsResetLazily) {
  RollingWindow<2> w(10, 2);
  w.add(5, 0, 7);
  // Bucket index 2 reclaims bucket 0's slot; the old counts must vanish.
  w.add(25, 1, 3);
  const auto t = w.totals(25);
  EXPECT_EQ(t[0], 0u);
  EXPECT_EQ(t[1], 3u);
}

TEST(RollingWindow, StaleSlotsExcludedEvenIfNotReclaimed) {
  RollingWindow<1> w(10, 4);
  w.add(0, 0, 5);
  // "now" far ahead, slot never overwritten: totals must not resurrect it.
  EXPECT_EQ(w.totals(1000)[0], 0u);
}

TEST(RollingWindow, NegativeTimesBucketCorrectly) {
  RollingWindow<1> w(10, 4);
  w.add(-5, 0);   // bucket -1 under floor division
  w.add(-15, 0);  // bucket -2
  EXPECT_EQ(w.totals(-1)[0], 2u);
}

// ---- StreamingInterruptions vs batch filter ---------------------------

TEST(StreamingInterruptions, MatchesBatchFilterOnSimulatedTrace) {
  const core::FilterConfig config;
  const core::FilterResult batch =
      core::filter_events(trace().ras_log, config);

  StreamingInterruptions streaming(config);
  for (const auto& event : trace().ras_log.events()) streaming.add(event);

  EXPECT_EQ(streaming.input_events(), batch.input_events);
  EXPECT_EQ(streaming.interruptions(), batch.clusters.size());
}

TEST(StreamingInterruptions, MttiMatchesBatchOnSimulatedTrace) {
  const core::FilterConfig config;
  const auto& ras = trace().ras_log;
  ASSERT_FALSE(ras.empty());
  const util::UnixSeconds begin = ras.events().front().timestamp;
  const util::UnixSeconds end = ras.events().back().timestamp + 1;

  const core::FilterResult batch = core::filter_events(ras, config);
  const core::MttiResult expected =
      core::compute_mtti(batch.clusters, begin, end);

  StreamingInterruptions streaming(config);
  for (const auto& event : ras.events()) streaming.add(event);
  const core::MttiResult got = streaming.mtti(begin, end);

  EXPECT_EQ(got.interruptions, expected.interruptions);
  EXPECT_DOUBLE_EQ(got.mtti_days, expected.mtti_days);
  EXPECT_DOUBLE_EQ(got.span_days, expected.span_days);
  EXPECT_EQ(got.intervals_days, expected.intervals_days);
}

TEST(StreamingInterruptions, EmptyWindowThrows) {
  StreamingInterruptions s{core::FilterConfig{}};
  EXPECT_THROW(s.mtti(10, 10), DomainError);
}

// ---- shard routing and board keys -------------------------------------

TEST(ShardRouting, DeterministicAndInRange) {
  std::vector<StreamRecord> replayable;
  for (const auto& job : trace().job_log.jobs())
    replayable.push_back({job.end_time, 0, job});
  for (const auto& event : trace().ras_log.events())
    replayable.push_back({event.timestamp, 0, event});
  for (const auto& r : replayable) {
    const std::size_t s = shard_of(r, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, shard_of(r, 4));  // stable
    EXPECT_EQ(shard_of(r, 1), 0u);
  }
}

TEST(ShardRouting, JobRecordsOfOneUserShareAShard) {
  joblog::JobRecord a, b;
  a.user_id = b.user_id = 42;
  a.job_id = 1;
  b.job_id = 2;
  EXPECT_EQ(shard_of({0, 0, a}, 8), shard_of({0, 0, b}, 8));
}

TEST(BoardKey, NameRoundTripsLocation) {
  const auto loc = topology::Location::parse("R12-M1-N09-J03", kMira);
  EXPECT_EQ(board_key_name(board_key(loc)), "R12-M1-N09");
  const auto midplane = topology::Location::parse("R00-M0", kMira);
  EXPECT_EQ(board_key_name(board_key(midplane)), "R00-M0");
  // Distinct boards map to distinct keys.
  EXPECT_NE(board_key(topology::Location::parse("R12-M1-N09", kMira)),
            board_key(topology::Location::parse("R12-M0-N09", kMira)));
}

}  // namespace
}  // namespace failmine::stream
