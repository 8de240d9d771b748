// Tests for the incremental streaming operators: rolling windows, the
// router's interruption clustering (core::SimilarityFilter fed event by
// event, vs the batch filter), and shard routing. The shards' E02
// partials are checked against a naive reference in
// test_columnar_differential.cpp.

#include "stream/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <vector>

#include "core/event_filter.hpp"
#include "core/mtti.hpp"
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

/// RollingWindow as it was before it kept its newest bucket: two floor
/// divisions and two modulos on every add.
template <std::size_t Columns>
class DividingWindow {
 public:
  DividingWindow(std::int64_t bucket_seconds, std::size_t bucket_count)
      : bucket_seconds_(bucket_seconds), buckets_(bucket_count) {}

  void add(util::UnixSeconds t, std::size_t column, std::uint64_t n) {
    const std::int64_t idx = bucket_index(t);
    Bucket& b = buckets_[slot(idx)];
    if (b.index != idx) {
      b.index = idx;
      b.counts.fill(0);
    }
    b.counts[column] += n;
  }

  std::array<std::uint64_t, Columns> totals(util::UnixSeconds now) const {
    std::array<std::uint64_t, Columns> out{};
    const std::int64_t newest = bucket_index(now);
    const std::int64_t oldest =
        newest - static_cast<std::int64_t>(buckets_.size()) + 1;
    for (const Bucket& b : buckets_) {
      if (b.index < oldest || b.index > newest) continue;
      for (std::size_t c = 0; c < Columns; ++c) out[c] += b.counts[c];
    }
    return out;
  }

 private:
  struct Bucket {
    std::int64_t index = std::numeric_limits<std::int64_t>::min();
    std::array<std::uint64_t, Columns> counts{};
  };
  std::int64_t bucket_index(util::UnixSeconds t) const {
    std::int64_t q = t / bucket_seconds_;
    if (t % bucket_seconds_ < 0) --q;
    return q;
  }
  std::size_t slot(std::int64_t idx) const {
    const auto m = static_cast<std::int64_t>(buckets_.size());
    return static_cast<std::size_t>(((idx % m) + m) % m);
  }
  std::int64_t bucket_seconds_;
  std::vector<Bucket> buckets_;
};

TEST(RollingWindow, MatchesDividingReferenceOnSeededTimes) {
  // Times start below zero and step by repeats, small advances, exact
  // bucket boundaries, late records and jumps past the ring span.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto seconds = static_cast<std::int64_t>(1 + rng() % 12);
    const std::size_t count = 1 + rng() % 6;
    const auto span = seconds * static_cast<std::int64_t>(count);
    RollingWindow<3> window(seconds, count);
    DividingWindow<3> reference(seconds, count);
    auto t = static_cast<util::UnixSeconds>(rng() % 400) - 300;
    for (int i = 0; i < 1500; ++i) {
      switch (rng() % 8) {
        case 0:
          break;  // same time again
        case 1:
        case 2:
          t += static_cast<std::int64_t>(rng() % 3);
          break;
        case 3: {  // the first second of the next bucket
          std::int64_t q = t / seconds;
          if (t % seconds < 0) --q;
          t = (q + 1) * seconds;
          break;
        }
        case 4:  // the last second of this bucket
          t += seconds - 1 - (((t % seconds) + seconds) % seconds);
          break;
        case 5:  // late, possibly older than the ring span
          t -= static_cast<std::int64_t>(rng() %
                                         static_cast<std::uint64_t>(2 * span));
          break;
        case 6:  // a jump past the ring span
          t += span + static_cast<std::int64_t>(
                          rng() % static_cast<std::uint64_t>(span));
          break;
        default:
          t += static_cast<std::int64_t>(rng() % 3) - 1;
          break;
      }
      const std::size_t column = rng() % 3;
      const std::uint64_t n = 1 + rng() % 3;
      window.add(t, column, n);
      reference.add(t, column, n);
      for (const std::int64_t ahead : {std::int64_t{0}, std::int64_t{1},
                                       seconds, span - 1, span}) {
        ASSERT_EQ(window.totals(t + ahead), reference.totals(t + ahead))
            << "add " << i << " at " << t << ", totals at +" << ahead;
      }
    }
  }
}

// ---- the router's SimilarityFilter vs the batch filter ----------------

TEST(StreamingInterruptions, MatchesBatchFilterOnSimulatedTrace) {
  const core::FilterConfig config;
  const core::FilterResult batch =
      core::filter_events(trace().ras_log, config);

  core::SimilarityFilter streaming(config);
  for (const auto& event : trace().ras_log.events()) streaming.add(event);

  EXPECT_EQ(streaming.input_events(), batch.input_events);
  EXPECT_EQ(streaming.clusters().size(), batch.clusters.size());
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

  core::SimilarityFilter streaming(config);
  for (const auto& event : ras.events()) streaming.add(event);
  const core::MttiResult got =
      core::compute_mtti(streaming.clusters(), begin, end);

  EXPECT_EQ(got.interruptions, expected.interruptions);
  EXPECT_DOUBLE_EQ(got.mtti_days, expected.mtti_days);
  EXPECT_DOUBLE_EQ(got.span_days, expected.span_days);
  EXPECT_EQ(got.intervals_days, expected.intervals_days);
}

TEST(StreamingInterruptions, EmptyWindowThrows) {
  core::SimilarityFilter s{core::FilterConfig{}};
  EXPECT_THROW(core::compute_mtti(s.clusters(), 10, 10), DomainError);
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
