// Tests for the bounded MPSC ring buffer and the watermark reorderer —
// the ingestion edge of the streaming pipeline.

#include "stream/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/watermark.hpp"
#include "util/error.hpp"

namespace failmine::stream {
namespace {

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0, BackpressurePolicy::kBlock), DomainError);
}

TEST(RingBuffer, FifoWithinCapacity) {
  RingBuffer<int> ring(8, BackpressurePolicy::kBlock);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_EQ(ring.size(), 5u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 100), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingBuffer, DropNewestCountsRejections) {
  RingBuffer<int> ring(2, BackpressurePolicy::kDropNewest);
  EXPECT_TRUE(ring.push(1));
  EXPECT_TRUE(ring.push(2));
  EXPECT_FALSE(ring.push(3));  // full
  EXPECT_EQ(ring.dropped(), 1u);
  std::vector<int> out;
  ring.release(ring.pop_batch(out, 1));
  EXPECT_TRUE(ring.push(4));  // space again
  EXPECT_EQ(ring.pushed(), 3u);
}

TEST(RingBuffer, PushBatchDropsOnlyWhatDoesNotFit) {
  RingBuffer<int> ring(3, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(ring.push_batch({1, 2, 3, 4, 5}), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(RingBuffer, PushAfterCloseFails) {
  RingBuffer<int> ring(4, BackpressurePolicy::kBlock);
  ring.push(1);
  ring.close();
  EXPECT_FALSE(ring.push(2));
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 10), 1u);  // drains what was accepted
  EXPECT_EQ(ring.pop_batch(out, 10), 0u);  // closed-and-empty
}

TEST(RingBuffer, BlockingProducerLosesNothing) {
  // Capacity far below the record count: producers must block, not drop.
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 4;
  RingBuffer<int> ring(64, BackpressurePolicy::kBlock);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(ring.push(p * kPerProducer + i));
    });

  std::vector<int> all;
  std::vector<int> batch;
  while (all.size() < kProducers * kPerProducer) {
    batch.clear();
    const std::size_t n = ring.pop_batch(batch, 256);
    ASSERT_GT(n, 0u);
    ring.release(n);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(ring.dropped(), 0u);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) ASSERT_EQ(all[i], i);
}

TEST(RingBuffer, OversizedPushBatchWakesSleepingConsumer) {
  // Regression: push_batch used to defer its not_empty_ notify to the end
  // of the batch. A batch larger than the capacity filled the ring and
  // then slept on not_full_ with the consumer still asleep on not_empty_
  // — a mutual wait neither side could exit.
  constexpr std::size_t kCapacity = 32;
  constexpr std::size_t kTotal = 10 * kCapacity;
  RingBuffer<int> ring(kCapacity, BackpressurePolicy::kBlock);

  std::vector<int> all;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (all.size() < kTotal) {
      batch.clear();
      const std::size_t n = ring.pop_batch(batch, 8);
      if (n == 0) break;
      ring.release(n);
      all.insert(all.end(), batch.begin(), batch.end());
    }
  });
  // Let the consumer reach its blocking wait on the empty ring before the
  // oversized batch arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<int> values(kTotal);
  std::iota(values.begin(), values.end(), 0);
  EXPECT_EQ(ring.push_batch(std::move(values)), kTotal);
  consumer.join();

  ASSERT_EQ(all.size(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i)
    ASSERT_EQ(all[i], static_cast<int>(i));  // FIFO preserved throughout
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingBuffer, EmptyOutTakesFittingFrontBatchWhole) {
  RingBuffer<int> ring(16, BackpressurePolicy::kBlock);
  std::vector<int> values = {1, 2, 3, 4};
  const int* storage = values.data();
  EXPECT_EQ(ring.push_batch(std::move(values)), 4u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(out.data(), storage);  // handed over, not copied
  EXPECT_EQ(ring.size(), 0u);
}

TEST(RingBuffer, PopBelowFrontBatchSizeMovesValues) {
  RingBuffer<int> ring(16, BackpressurePolicy::kBlock);
  std::vector<int> first(10);
  std::iota(first.begin(), first.end(), 0);
  ring.push_batch(std::move(first));
  ring.push_batch({10, 11});
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);  // max below the front's 10
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.size(), 8u);
  // A non-empty `out` gets values appended, up to the front batch's end.
  EXPECT_EQ(ring.pop_batch(out, 100), 6u);
  EXPECT_EQ(ring.size(), 2u);
  // A single push after a partial pop lands behind the queued batches.
  EXPECT_TRUE(ring.push(12));
  out.clear();
  while (ring.size() > 0) ring.pop_batch(out, 100);
  EXPECT_EQ(out, (std::vector<int>{10, 11, 12}));
}

TEST(RingBuffer, DropNewestKeepsThePrefixThatFits) {
  RingBuffer<int> ring(5, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(ring.push_batch({0, 1, 2}), 3u);
  EXPECT_EQ(ring.push_batch({10, 11, 12, 13, 14, 15, 16}), 2u);
  EXPECT_EQ(ring.dropped(), 5u);
  EXPECT_FALSE(ring.push(20));
  std::vector<int> out;
  ring.pop_batch(out, 100);
  ring.pop_batch(out, 100);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 10, 11}));
  ring.release(out.size());
  // Larger than the whole capacity, into an empty ring: the first
  // capacity's worth is kept.
  EXPECT_EQ(ring.push_batch({30, 31, 32, 33, 34, 35, 36, 37}), 5u);
  out.clear();
  ring.pop_batch(out, 100);
  EXPECT_EQ(out, (std::vector<int>{30, 31, 32, 33, 34}));
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 9u);
}

TEST(RingBuffer, BlockingBatchesStayFifoAndWithinCapacity) {
  // Seeded batch sizes from 0 to 3x the capacity (whole, split and
  // single pushes) against a consumer popping seeded amounts and
  // releasing them; a watcher polls occupied() throughout.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const std::size_t capacity = 1 + rng() % 48;
    RingBuffer<int> ring(capacity, BackpressurePolicy::kBlock);
    std::vector<std::vector<int>> batches;
    int next = 0;
    for (int b = 0; b < 200; ++b) {
      std::vector<int> batch(rng() % (3 * capacity + 1));
      for (int& v : batch) v = next++;
      batches.push_back(std::move(batch));
    }
    const std::size_t total = static_cast<std::size_t>(next);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> most{0};
    std::thread watcher([&] {
      while (!done.load())
        most.store(std::max(most.load(), ring.occupied()));
    });
    std::vector<int> all;
    std::thread consumer([&, max_seed = rng()] {
      std::mt19937_64 pops(max_seed);
      std::vector<int> out;
      for (std::size_t n;
           (n = ring.pop_batch(out, 1 + pops() % (2 * capacity))) > 0;) {
        ring.release(n);
        if (pops() % 2 == 0) {
          all.insert(all.end(), out.begin(), out.end());
          out.clear();
        }
      }
      all.insert(all.end(), out.begin(), out.end());
    });
    std::size_t accepted = 0;
    for (auto& batch : batches) {
      if (batch.size() == 1) {
        accepted += ring.push(batch.front()) ? 1 : 0;
      } else {
        accepted += ring.push_batch(std::move(batch));
      }
      EXPECT_LE(ring.occupied(), ring.capacity());  // non-fatal: threads to join
    }
    ring.close();
    consumer.join();
    done.store(true);
    watcher.join();

    EXPECT_EQ(accepted, total);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_LE(most.load(), capacity);
    ASSERT_EQ(all.size(), total);
    for (std::size_t i = 0; i < total; ++i)
      ASSERT_EQ(all[i], static_cast<int>(i));
  }
}

TEST(RingBuffer, PoppedValuesHoldTheirSpaceUntilReleased) {
  // Popped values count against the capacity until release(): the
  // consumer's batch in hand and the queue share one bound, which the
  // occupancy gauge reports.
  RingBuffer<int> ring(4, BackpressurePolicy::kDropNewest);
  obs::Gauge occupancy;
  ring.set_occupancy_gauge(&occupancy);
  EXPECT_EQ(ring.push_batch({1, 2, 3, 4}), 4u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 4), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.occupied(), 4u);
  EXPECT_EQ(occupancy.value(), 4.0);
  EXPECT_FALSE(ring.push(5));  // the popped four still hold the space
  ring.release(3);
  EXPECT_EQ(occupancy.value(), 1.0);
  EXPECT_EQ(ring.push_batch({6, 7, 8, 9}), 3u);  // room for three
  ring.release(1);
  EXPECT_TRUE(ring.push(10));
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(occupancy.value(), 4.0);
}

TEST(RingBuffer, ReacquiredSpaceMayExceedTheCapacity) {
  // reacquire() counts released values again without waiting, past the
  // capacity if need be; producers get room back only through release().
  RingBuffer<int> ring(4, BackpressurePolicy::kDropNewest);
  EXPECT_EQ(ring.push_batch({1, 2, 3}), 3u);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_batch(out, 4), 3u);
  ring.release(3);
  EXPECT_TRUE(ring.push(4));
  ring.reacquire(3);
  EXPECT_EQ(ring.occupied(), 4u);
  EXPECT_FALSE(ring.push(5));
  ring.reacquire(2);
  EXPECT_EQ(ring.occupied(), 6u);
  EXPECT_EQ(ring.push_batch({6, 7}), 0u);
  ring.release(3);
  EXPECT_EQ(ring.occupied(), 3u);
  EXPECT_EQ(ring.push_batch({8, 9}), 1u);  // room for one
  EXPECT_EQ(ring.dropped(), 4u);
}

// ---- WatermarkReorderer ----------------------------------------------

StreamRecord ras_at(util::UnixSeconds t, std::uint64_t seq) {
  raslog::RasEvent e;
  e.record_id = seq;
  e.timestamp = t;
  return {t, seq, e};
}

/// Records that stay where they arrived: each push names its record by
/// its index here, and a release hands the index back.
struct Arrivals {
  std::vector<StreamRecord> records;

  template <typename Emit>
  void push(WatermarkReorderer& r, StreamRecord record, Emit&& emit) {
    records.push_back(std::move(record));
    r.push(records.back(), records.size() - 1, emit);
  }
};

TEST(Watermark, RejectsNegativeLateness) {
  EXPECT_THROW(WatermarkReorderer(-1), DomainError);
}

TEST(Watermark, ZeroLatenessPassesThroughInOrder) {
  WatermarkReorderer r(0);
  Arrivals in;
  std::vector<std::uint64_t> seen;
  auto emit = [&](WatermarkReorderer::Ref ref) {
    seen.push_back(in.records[ref].sequence);
  };
  for (std::uint64_t i = 0; i < 5; ++i)
    in.push(r, ras_at(100 + static_cast<util::UnixSeconds>(i), i), emit);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.late_records(), 0u);
}

TEST(Watermark, RestoresOrderWithinBound) {
  // Arrival order 3,1,2,4 with skew <= 10; lateness 20 restores 1,2,3,4.
  WatermarkReorderer r(20);
  Arrivals in;
  std::vector<util::UnixSeconds> seen;
  auto emit = [&](WatermarkReorderer::Ref ref) {
    seen.push_back(in.records[ref].time);
  };
  in.push(r, ras_at(103, 3), emit);
  in.push(r, ras_at(101, 1), emit);
  in.push(r, ras_at(102, 2), emit);
  in.push(r, ras_at(140, 4), emit);  // watermark 120 releases 101..103
  r.flush(emit);
  EXPECT_EQ(seen, (std::vector<util::UnixSeconds>{101, 102, 103, 140}));
  EXPECT_EQ(r.late_records(), 0u);
}

TEST(Watermark, TiesReleaseInSequenceOrder) {
  WatermarkReorderer r(5);
  Arrivals in;
  std::vector<std::uint64_t> seen;
  auto emit = [&](WatermarkReorderer::Ref ref) {
    seen.push_back(in.records[ref].sequence);
  };
  in.push(r, ras_at(100, 2), emit);
  in.push(r, ras_at(100, 1), emit);
  in.push(r, ras_at(100, 3), emit);
  r.flush(emit);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Watermark, CountsBoundViolationsButStillReleases) {
  WatermarkReorderer r(10);
  Arrivals in;
  std::vector<util::UnixSeconds> seen;
  auto emit = [&](WatermarkReorderer::Ref ref) {
    seen.push_back(in.records[ref].time);
  };
  in.push(r, ras_at(200, 1), emit);
  in.push(r, ras_at(100, 2), emit);  // 90 seconds behind the watermark
  r.flush(emit);
  EXPECT_EQ(r.late_records(), 1u);
  EXPECT_EQ(seen.size(), 2u);  // nothing is dropped
}

TEST(Watermark, LagTracksHeldBackSpan) {
  WatermarkReorderer r(100);
  Arrivals in;
  auto drop = [](WatermarkReorderer::Ref) {};
  in.push(r, ras_at(1000, 1), drop);
  in.push(r, ras_at(1050, 2), drop);
  EXPECT_EQ(r.lag_seconds(), 50);  // 1000 is still buffered
  EXPECT_EQ(r.watermark(), 950);
  EXPECT_EQ(r.buffered(), 2u);
}

// ---- WatermarkReorderer against a reference model ----------------------

/// (event time, sequence): the order records must be released in.
using ReleaseKey = std::pair<util::UnixSeconds, std::uint64_t>;

/// The reorderer's contract in its plainest form: a buffer kept sorted by
/// (time, sequence) and released from the front once the watermark passes,
/// with the same late rule and the same lateness-0 pass-through.
struct ReferenceReorderer {
  std::int64_t lateness;
  std::vector<ReleaseKey> buffer;
  util::UnixSeconds newest = 0;
  bool seen = false;
  std::uint64_t late = 0;

  util::UnixSeconds watermark() const { return seen ? newest - lateness : 0; }
  std::int64_t lag() const {
    return buffer.empty() ? 0 : newest - buffer.front().first;
  }
  void push(ReleaseKey key, std::vector<ReleaseKey>& out) {
    if (!seen || key.first > newest) newest = key.first;
    seen = true;
    if (key.first < watermark()) ++late;
    if (lateness == 0 && buffer.empty()) return out.push_back(key);
    buffer.insert(std::upper_bound(buffer.begin(), buffer.end(), key), key);
    while (!buffer.empty() && buffer.front().first < watermark()) {
      out.push_back(buffer.front());
      buffer.erase(buffer.begin());
    }
  }
  void flush(std::vector<ReleaseKey>& out) {
    out.insert(out.end(), buffer.begin(), buffer.end());
    buffer.clear();
  }
};

/// Unique to the record's sequence, so a release that names the wrong
/// record reads the wrong text.
std::string text_of(std::uint64_t sequence) {
  return "ras text of replayed record #" + std::to_string(sequence);
}

TEST(Watermark, MatchesReferenceModelOnSeededStreams) {
  std::size_t streams_with_late = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const std::uint64_t n = rng() % 5001;
    const auto skew = static_cast<std::int64_t>(rng() % 101);
    const auto lateness = static_cast<std::int64_t>(rng() % (3 * skew + 1));

    // Event times in sequence order, three in four shared with the
    // previous record; arrival = event time + uniform skew in
    // [-skew, +skew].
    std::vector<std::pair<std::int64_t, ReleaseKey>> arrivals;
    util::UnixSeconds time = 1'000'000;
    for (std::uint64_t seq = 0; seq < n; ++seq) {
      if (rng() % 4 == 0) time += static_cast<util::UnixSeconds>(rng() % 5);
      const auto jitter =
          static_cast<std::int64_t>(rng() % (2 * skew + 1)) - skew;
      arrivals.push_back({time + jitter, {time, seq}});
    }
    std::sort(arrivals.begin(), arrivals.end());

    WatermarkReorderer reorderer(lateness);
    ReferenceReorderer reference{lateness, {}};
    // Every record stays where it arrived; a release names it by index.
    std::vector<StreamRecord> records;
    records.reserve(arrivals.size());
    std::vector<ReleaseKey> got;
    std::vector<ReleaseKey> want;
    auto emit = [&](WatermarkReorderer::Ref ref) {
      const StreamRecord& record = records[ref];
      const auto& event = std::get<raslog::RasEvent>(record.payload);
      ASSERT_EQ(event.text, text_of(record.sequence));
      ASSERT_EQ(event.timestamp, record.time);
      got.emplace_back(record.time, record.sequence);
    };
    auto expect_same_state = [&] {
      ASSERT_EQ(got, want);
      ASSERT_EQ(reorderer.late_records(), reference.late);
      ASSERT_EQ(reorderer.buffered(), reference.buffer.size());
      ASSERT_EQ(reorderer.lag_seconds(), reference.lag());
      ASSERT_EQ(reorderer.watermark(), reference.watermark());
    };
    for (const auto& [arrival, key] : arrivals) {
      records.push_back(ras_at(key.first, key.second));
      std::get<raslog::RasEvent>(records.back().payload).text =
          text_of(key.second);
      reorderer.push(records.back(), records.size() - 1, emit);
      reference.push(key, want);
      ASSERT_NO_FATAL_FAILURE(expect_same_state());
    }
    reorderer.flush(emit);
    reference.flush(want);
    ASSERT_NO_FATAL_FAILURE(expect_same_state());
    ASSERT_EQ(got.size(), n);
    if (lateness >= 2 * skew) {
      EXPECT_EQ(reorderer.late_records(), 0u);
    }
    if (reorderer.late_records() > 0) ++streams_with_late;
  }
  // The streams cover both sides of the 2*skew bound.
  EXPECT_GE(streams_with_late, 20u);
}

}  // namespace
}  // namespace failmine::stream
