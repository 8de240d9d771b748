#include "sim/replay.hpp"

#include <algorithm>
#include <random>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace failmine::sim {

namespace {

/// One record's place in the replay, 24 bytes: its event time, then the
/// tie-breaks for records sharing it — source, the stable per-source id
/// (job, task, RAS record or owning job id) and, last, its index in its
/// log, so records equal on all three keep their log order.
struct ReplayKey {
  util::UnixSeconds time;
  std::uint64_t id;
  stream::RecordSource source;
  std::uint32_t index;
};

/// Every record's key, sorted into replay order.
std::vector<ReplayKey> sorted_keys(const SimResult& result) {
  std::vector<ReplayKey> keys;
  keys.reserve(result.job_log.size() + result.task_log.size() +
               result.ras_log.size() + result.io_log.size());
  const auto add = [&keys](util::UnixSeconds time, std::uint64_t id,
                           stream::RecordSource source, std::size_t index) {
    keys.push_back({time, id, source, static_cast<std::uint32_t>(index)});
  };

  std::unordered_map<std::uint64_t, util::UnixSeconds> job_end;
  job_end.reserve(result.job_log.size());
  const auto& jobs = result.job_log.jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    job_end.emplace(jobs[i].job_id, jobs[i].end_time);
    add(jobs[i].end_time, jobs[i].job_id, stream::RecordSource::kJob, i);
  }
  const auto& tasks = result.task_log.tasks();
  for (std::size_t i = 0; i < tasks.size(); ++i)
    add(tasks[i].end_time, tasks[i].task_id, stream::RecordSource::kTask, i);
  const auto& events = result.ras_log.events();
  for (std::size_t i = 0; i < events.size(); ++i)
    add(events[i].timestamp, events[i].record_id, stream::RecordSource::kRas,
        i);
  const auto& io = result.io_log.records();
  for (std::size_t i = 0; i < io.size(); ++i) {
    const auto it = job_end.find(io[i].job_id);
    if (it == job_end.end())
      throw failmine::DomainError("I/O record refers to unknown job");
    add(it->second, io[i].job_id, stream::RecordSource::kIo, i);
  }

  std::sort(keys.begin(), keys.end(),
            [](const ReplayKey& a, const ReplayKey& b) {
              return std::tie(a.time, a.source, a.id, a.index) <
                     std::tie(b.time, b.source, b.id, b.index);
            });
  return keys;
}

/// Copies the record `key` names out of its log as replay record
/// number `sequence`.
stream::StreamRecord record_at(const SimResult& result, const ReplayKey& key,
                               std::uint64_t sequence) {
  switch (key.source) {
    case stream::RecordSource::kJob:
      return {key.time, sequence, result.job_log.jobs()[key.index]};
    case stream::RecordSource::kTask:
      return {key.time, sequence, result.task_log.tasks()[key.index]};
    case stream::RecordSource::kRas:
      return {key.time, sequence, result.ras_log.events()[key.index]};
    case stream::RecordSource::kIo:
      break;
  }
  return {key.time, sequence, result.io_log.records()[key.index]};
}

}  // namespace

std::vector<stream::StreamRecord> build_replay(const SimResult& result) {
  const std::vector<ReplayKey> keys = sorted_keys(result);
  std::vector<stream::StreamRecord> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    out.push_back(record_at(result, keys[i], i));
  return out;
}

std::vector<stream::StreamRecord> shuffled_replay(
    const SimResult& result, std::int64_t max_skew_seconds,
    std::uint64_t seed) {
  if (max_skew_seconds < 0)
    throw failmine::DomainError("replay skew must be non-negative");
  const std::vector<ReplayKey> keys = sorted_keys(result);

  // Arrival time = event time + uniform skew in [-max_skew, +max_skew],
  // drawn in sequence order from a seeded engine without
  // std::uniform_int_distribution so the shuffle is reproducible across
  // standard libraries. Records arrive in (arrival time, sequence) order.
  std::mt19937_64 rng(seed);
  const std::uint64_t span = 2 * static_cast<std::uint64_t>(max_skew_seconds) + 1;
  std::vector<std::pair<std::int64_t, std::uint64_t>> arrivals(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::int64_t skew =
        static_cast<std::int64_t>(rng() % span) - max_skew_seconds;
    arrivals[i] = {keys[i].time + skew, i};
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<stream::StreamRecord> out;
  out.reserve(keys.size());
  for (const auto& [arrival, sequence] : arrivals)
    out.push_back(record_at(result, keys[sequence], sequence));
  return out;
}

}  // namespace failmine::sim
