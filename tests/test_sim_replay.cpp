// Tests for the time-ordered replay emitter (sim -> stream bridge).

#include "sim/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace failmine::sim {
namespace {

const SimResult& trace() {
  static const SimResult result = [] {
    SimConfig config = SimConfig::test_scale();
    config.scale = 0.003;
    return simulate(config);
  }();
  return result;
}

TEST(Replay, EmitsEveryRecordExactlyOnce) {
  const auto records = build_replay(trace());
  EXPECT_EQ(records.size(), trace().job_log.size() + trace().task_log.size() +
                                trace().ras_log.size() + trace().io_log.size());
  std::array<std::size_t, 4> by_source{};
  for (const auto& r : records)
    ++by_source[static_cast<std::size_t>(r.source())];
  EXPECT_EQ(by_source[0], trace().job_log.size());
  EXPECT_EQ(by_source[1], trace().task_log.size());
  EXPECT_EQ(by_source[2], trace().ras_log.size());
  EXPECT_EQ(by_source[3], trace().io_log.size());
}

TEST(Replay, TimeOrderedWithDenseAscendingSequences) {
  const auto records = build_replay(trace());
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sequence, i);
    if (i > 0) EXPECT_GE(records[i].time, records[i - 1].time);
  }
}

TEST(Replay, EventTimesAreKnowabilityTimes) {
  // Jobs and tasks surface at end_time; RAS at its timestamp; I/O
  // records when their owning job ends.
  std::unordered_map<std::uint64_t, util::UnixSeconds> job_end;
  for (const auto& job : trace().job_log.jobs())
    job_end[job.job_id] = job.end_time;
  for (const auto& r : build_replay(trace())) {
    switch (r.source()) {
      case stream::RecordSource::kJob:
        EXPECT_EQ(r.time, std::get<joblog::JobRecord>(r.payload).end_time);
        break;
      case stream::RecordSource::kTask:
        EXPECT_EQ(r.time, std::get<tasklog::TaskRecord>(r.payload).end_time);
        break;
      case stream::RecordSource::kRas:
        EXPECT_EQ(r.time, std::get<raslog::RasEvent>(r.payload).timestamp);
        break;
      case stream::RecordSource::kIo:
        EXPECT_EQ(r.time,
                  job_end.at(std::get<iolog::IoRecord>(r.payload).job_id));
        break;
    }
  }
}

TEST(Replay, ShuffleIsDeterministicBoundedAndComplete) {
  const auto reference = build_replay(trace());
  const auto a = shuffled_replay(trace(), 600, 42);
  const auto b = shuffled_replay(trace(), 600, 42);
  const auto c = shuffled_replay(trace(), 600, 43);

  ASSERT_EQ(a.size(), reference.size());
  // Same seed -> identical order; different seed -> different order.
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i].sequence, b[i].sequence);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].sequence != c[i].sequence) {
      differs = true;
      break;
    }
  EXPECT_TRUE(differs);

  // Every record is still present, with its original time and sequence.
  std::vector<std::uint64_t> seqs;
  for (const auto& r : a) seqs.push_back(r.sequence);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) ASSERT_EQ(seqs[i], i);

  // Displacement in event time is bounded: a record at position i can
  // only have overtaken records within 2*skew of its own time.
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_LE(a[i - 1].time - a[i].time, 2 * 600);
}

TEST(Replay, ZeroSkewShuffleIsIdentity) {
  const auto reference = build_replay(trace());
  const auto shuffled = shuffled_replay(trace(), 0, 7);
  ASSERT_EQ(shuffled.size(), reference.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i)
    EXPECT_EQ(shuffled[i].sequence, reference[i].sequence);
}

TEST(Replay, NegativeSkewThrows) {
  EXPECT_THROW(shuffled_replay(trace(), -1, 0), DomainError);
}

// ---- build_replay / shuffled_replay against a plain specification -------

/// The replay as a specification: every record of the four logs, appended
/// log by log, stable-sorted by (event time, source, per-source id), with
/// sequence numbers in that order.
std::vector<stream::StreamRecord> reference_replay(const SimResult& result) {
  std::vector<stream::StreamRecord> out;
  std::unordered_map<std::uint64_t, util::UnixSeconds> job_end;
  for (const auto& job : result.job_log.jobs()) {
    job_end[job.job_id] = job.end_time;
    out.push_back({job.end_time, 0, job});
  }
  for (const auto& task : result.task_log.tasks())
    out.push_back({task.end_time, 0, task});
  for (const auto& event : result.ras_log.events())
    out.push_back({event.timestamp, 0, event});
  for (const auto& io : result.io_log.records())
    out.push_back({job_end.at(io.job_id), 0, io});
  const auto id = [](const stream::StreamRecord& r) -> std::uint64_t {
    switch (r.source()) {
      case stream::RecordSource::kJob:
        return std::get<joblog::JobRecord>(r.payload).job_id;
      case stream::RecordSource::kTask:
        return std::get<tasklog::TaskRecord>(r.payload).task_id;
      case stream::RecordSource::kRas:
        return std::get<raslog::RasEvent>(r.payload).record_id;
      case stream::RecordSource::kIo:
        return std::get<iolog::IoRecord>(r.payload).job_id;
    }
    return 0;
  };
  std::stable_sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.payload.index() != b.payload.index())
      return a.payload.index() < b.payload.index();
    return id(a) < id(b);
  });
  for (std::size_t i = 0; i < out.size(); ++i) out[i].sequence = i;
  return out;
}

/// The reference order re-sorted by (arrival, sequence), arrival being
/// event time plus one mt19937_64 draw per record in sequence order.
std::vector<stream::StreamRecord> reference_shuffle(
    const std::vector<stream::StreamRecord>& ordered, std::int64_t skew,
    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint64_t span = 2 * static_cast<std::uint64_t>(skew) + 1;
  std::vector<std::pair<std::int64_t, std::uint64_t>> arrivals;
  for (const auto& r : ordered)
    arrivals.emplace_back(
        r.time + static_cast<std::int64_t>(rng() % span) - skew, r.sequence);
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<stream::StreamRecord> out;
  for (const auto& [arrival, sequence] : arrivals)
    out.push_back(ordered[sequence]);
  return out;
}

void expect_same_records(const std::vector<stream::StreamRecord>& got,
                         const std::vector<stream::StreamRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "record " << i;
    ASSERT_EQ(got[i].sequence, want[i].sequence) << "record " << i;
    ASSERT_TRUE(got[i].payload == want[i].payload) << "record " << i;
  }
}

TEST(Replay, BuildMatchesStableSortReference) {
  expect_same_records(build_replay(trace()), reference_replay(trace()));
}

TEST(Replay, ShuffleMatchesReferenceShuffle) {
  expect_same_records(shuffled_replay(trace(), 600, 42),
                      reference_shuffle(reference_replay(trace()), 600, 42));
}

TEST(Replay, EqualKeysReplayInLogOrder) {
  // RAS events equal in timestamp and record id, more of them than an
  // unstable sort leaves in place: RasLog keeps their append order, and
  // the replay must keep the log's order.
  std::vector<raslog::RasEvent> events(40);
  std::vector<std::string> log_order;
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].record_id = 7;
    events[i].timestamp = 1000;
    events[i].text = "event " + std::to_string(i * 17 % events.size());
    log_order.push_back(events[i].text);
  }
  SimResult result;
  result.ras_log = raslog::RasLog(std::move(events));
  for (const auto& records :
       {build_replay(result), shuffled_replay(result, 0, 1)}) {
    std::vector<std::string> texts;
    for (const auto& r : records)
      texts.push_back(std::get<raslog::RasEvent>(r.payload).text);
    EXPECT_EQ(texts, log_order);
  }
}

}  // namespace
}  // namespace failmine::sim
