// failmine/stream/operators.hpp
//
// Incremental operators maintaining the paper's headline statistics over
// an ordered record stream.
//
// Two execution contexts exist in the pipeline:
//  * order-sensitive operators (interruption clustering, rolling windows)
//    run on the router thread, which sees the whole stream in watermark
//    order;
//  * order-insensitive, mergeable aggregates (exit breakdown, quantile
//    and heavy-hitter sketches, severity totals) run sharded — each shard
//    owns a ShardAggregates updated from its partition of the stream, and
//    snapshots merge the partials.
// The exit breakdown is the batch E02 accumulator (analysis::JobGroups
// keyed by exit class), so its counts and shares equal the batch answer
// exactly; per-class core-hours may differ in the last bits, because
// merging shard partials reorders the f64 sums. The interruption count
// equals the batch filter's exactly too; sketched statistics carry
// documented error bounds instead.

#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "analysis/accumulators.hpp"
#include "core/event_filter.hpp"
#include "core/joint_analyzer.hpp"
#include "core/mtti.hpp"
#include "stream/heavy_hitters.hpp"
#include "stream/quantile_sketch.hpp"
#include "stream/record.hpp"
#include "topology/machine.hpp"

namespace failmine::stream {

/// A trailing-window counter ring: counts bucketed by absolute bucket
/// index (event_time / bucket_seconds), so expiry needs no per-record
/// bookkeeping — a slot is lazily reset when its index is reclaimed.
/// `Columns` independent counts are kept per bucket (exit classes,
/// severities, ...).
template <std::size_t Columns>
class RollingWindow {
 public:
  RollingWindow(std::int64_t bucket_seconds, std::size_t bucket_count)
      : bucket_seconds_(bucket_seconds), buckets_(bucket_count) {}

  void add(util::UnixSeconds t, std::size_t column, std::uint64_t n = 1) {
    const std::int64_t idx = bucket_index(t);
    Bucket& b = buckets_[slot(idx)];
    if (b.index != idx) {
      b.index = idx;
      b.counts.fill(0);
    }
    b.counts[column] += n;
  }

  /// Sum of `column` over buckets inside the trailing window ending at
  /// `now` (buckets older than the ring span are excluded even if a stale
  /// slot still holds them).
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

  std::int64_t window_seconds() const {
    return bucket_seconds_ * static_cast<std::int64_t>(buckets_.size());
  }

 private:
  struct Bucket {
    std::int64_t index = std::numeric_limits<std::int64_t>::min();
    std::array<std::uint64_t, Columns> counts{};
  };

  std::int64_t bucket_index(util::UnixSeconds t) const {
    // Floor division (event times can precede the epoch in tests).
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

/// Streaming E07/E08: single-pass similarity clustering of FATAL (or
/// configured-severity) RAS events, replicating core::filter_events's
/// greedy join order exactly, so the streamed interruption count matches
/// the batch filter on the same ordered stream.
class StreamingInterruptions {
 public:
  explicit StreamingInterruptions(core::FilterConfig config);

  /// Feeds one RAS event (any severity; mismatches are ignored). Events
  /// must arrive in the stream's watermark order.
  void add(const raslog::RasEvent& event);

  std::uint64_t input_events() const { return input_events_; }
  std::uint64_t interruptions() const { return first_times_.size(); }

  /// MTTI over [begin, end): core::mtti_from_times over the first times
  /// of the interruptions opened so far, as core::compute_mtti runs it on
  /// the batch filter's clusters.
  core::MttiResult mtti(util::UnixSeconds begin, util::UnixSeconds end) const;

  const core::FilterConfig& config() const { return config_; }

 private:
  struct OpenCluster {
    raslog::RasEvent representative;
    util::UnixSeconds last_time = 0;
  };

  core::FilterConfig config_;
  std::vector<OpenCluster> open_;          ///< creation order, expired lazily
  std::vector<util::UnixSeconds> first_times_;  ///< one per cluster, in order
  std::uint64_t input_events_ = 0;
};

/// The mergeable per-shard aggregate bank.
struct ShardAggregates {
  ShardAggregates(const topology::MachineConfig& machine_config,
                  double quantile_epsilon, std::size_t heavy_hitter_capacity);

  void apply(const StreamRecord& record);
  void merge(const ShardAggregates& other);

  topology::MachineConfig machine;
  std::array<std::uint64_t, kRecordSourceCount> records_by_source{};
  analysis::JobGroups exits;                 ///< E02, keyed by exit class
  GkQuantileSketch runtime_sketch;           ///< job runtimes, seconds
  SpaceSavingSketch users_by_failures;       ///< streaming E03
  SpaceSavingSketch projects_by_failures;
  SpaceSavingSketch boards_by_events;        ///< weak-board detection (T-D)
  std::array<std::uint64_t, 3> severity_totals{};  ///< INFO, WARN, FATAL
  std::uint64_t task_failures = 0;
  std::uint64_t io_bytes_total = 0;
};

/// Packs a node-board location into the space-saving key space (and back
/// out for display): rack row/column, midplane, board.
std::uint64_t board_key(const topology::Location& location);
std::string board_key_name(std::uint64_t key);

}  // namespace failmine::stream
