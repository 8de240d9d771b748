#include "stream/operators.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace failmine::stream {

namespace {

obs::Counter& interruptions_opened_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("stream.interruptions_opened");
  return counter;
}

}  // namespace

// ---- StreamingInterruptions ------------------------------------------

StreamingInterruptions::StreamingInterruptions(core::FilterConfig config)
    : config_(std::move(config)) {
  if (config_.window_seconds < 0)
    throw failmine::DomainError("filter window must be non-negative");
}

void StreamingInterruptions::add(const raslog::RasEvent& event) {
  if (event.severity != config_.severity) return;
  ++input_events_;

  // Mirror of core::filter_events: expire open clusters whose last
  // member fell out of the sliding window, then join the most recently
  // opened similar cluster, else open a new one.
  std::erase_if(open_, [&](const OpenCluster& c) {
    return c.last_time < event.timestamp - config_.window_seconds;
  });
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (core::spatially_similar(it->representative, event, config_)) {
      it->last_time = event.timestamp;
      return;
    }
  }
  OpenCluster c;
  c.representative = event;
  c.last_time = event.timestamp;
  open_.push_back(std::move(c));
  first_times_.push_back(event.timestamp);
  interruptions_opened_counter().add(1);
}

core::MttiResult StreamingInterruptions::mtti(util::UnixSeconds begin,
                                              util::UnixSeconds end) const {
  return core::mtti_from_times(first_times_, begin, end);
}

// ---- ShardAggregates --------------------------------------------------

ShardAggregates::ShardAggregates(const topology::MachineConfig& machine_config,
                                 double quantile_epsilon,
                                 std::size_t heavy_hitter_capacity)
    : machine(machine_config),
      exits(machine_config, analysis::JobKey::kExitClass),
      runtime_sketch(quantile_epsilon),
      users_by_failures(heavy_hitter_capacity),
      projects_by_failures(heavy_hitter_capacity),
      boards_by_events(heavy_hitter_capacity) {}

void ShardAggregates::apply(const StreamRecord& record) {
  ++records_by_source[static_cast<std::size_t>(record.source())];
  switch (record.source()) {
    case RecordSource::kJob: {
      const auto& job = std::get<joblog::JobRecord>(record.payload);
      exits.add(analysis::JobFacts::of(job, analysis::JobKey::kExitClass));
      runtime_sketch.insert(static_cast<double>(job.runtime_seconds()));
      if (job.failed()) {
        users_by_failures.add(job.user_id);
        projects_by_failures.add(job.project_id);
      }
      break;
    }
    case RecordSource::kTask: {
      const auto& task = std::get<tasklog::TaskRecord>(record.payload);
      if (task.failed()) ++task_failures;
      break;
    }
    case RecordSource::kRas: {
      const auto& event = std::get<raslog::RasEvent>(record.payload);
      ++severity_totals[static_cast<std::size_t>(event.severity)];
      boards_by_events.add(board_key(event.location));
      break;
    }
    case RecordSource::kIo: {
      const auto& io = std::get<iolog::IoRecord>(record.payload);
      io_bytes_total += io.total_bytes();
      break;
    }
  }
}

void ShardAggregates::merge(const ShardAggregates& other) {
  for (std::size_t i = 0; i < kRecordSourceCount; ++i)
    records_by_source[i] += other.records_by_source[i];
  exits.merge(other.exits);
  runtime_sketch.merge(other.runtime_sketch);
  users_by_failures.merge(other.users_by_failures);
  projects_by_failures.merge(other.projects_by_failures);
  boards_by_events.merge(other.boards_by_events);
  for (std::size_t i = 0; i < severity_totals.size(); ++i)
    severity_totals[i] += other.severity_totals[i];
  task_failures += other.task_failures;
  io_bytes_total += other.io_bytes_total;
}

std::uint64_t board_key(const topology::Location& location) {
  const topology::Level effective =
      std::min(location.level(), topology::Level::kNodeBoard);
  const topology::Location board = location.ancestor(effective);
  std::uint64_t key = (static_cast<std::uint64_t>(board.rack_row()) << 16) |
                      (static_cast<std::uint64_t>(board.rack_column()) << 12);
  if (board.level() >= topology::Level::kMidplane)
    key |= static_cast<std::uint64_t>(board.midplane()) << 8;
  if (board.level() >= topology::Level::kNodeBoard)
    key |= static_cast<std::uint64_t>(board.board()) | (1ULL << 20);
  return key;
}

std::string board_key_name(std::uint64_t key) {
  char buf[32];
  if (key & (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "R%d%X-M%d-N%02d",
                  static_cast<int>((key >> 16) & 0xF),
                  static_cast<unsigned>((key >> 12) & 0xF),
                  static_cast<int>((key >> 8) & 0xF),
                  static_cast<int>(key & 0xFF));
  } else {
    std::snprintf(buf, sizeof(buf), "R%d%X-M%d",
                  static_cast<int>((key >> 16) & 0xF),
                  static_cast<unsigned>((key >> 12) & 0xF),
                  static_cast<int>((key >> 8) & 0xF));
  }
  return buf;
}

}  // namespace failmine::stream
