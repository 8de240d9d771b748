// failmine/stream/snapshot.hpp
//
// Point-in-time view of everything the streaming pipeline maintains.
//
// A snapshot is assembled by merging per-shard aggregates with the
// router's order-sensitive state under their locks, so every number in
// one snapshot reflects a single prefix of each shard's substream (and,
// once the pipeline is finished, the exact complete stream). The JSON
// form is the CLI's machine-readable output and what the parity tooling
// diffs against batch results.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/joint_analyzer.hpp"
#include "core/mtti.hpp"
#include "obs/causal.hpp"
#include "util/time.hpp"

namespace failmine::stream {

/// One reported heavy hitter.
struct TopEntry {
  std::uint64_t key = 0;
  std::string label;          ///< display form (user id, project id, board)
  std::uint64_t count = 0;    ///< over-estimate
  std::uint64_t error = 0;    ///< count - error <= true <= count
};

struct StreamSnapshot {
  // -- ingest accounting -----------------------------------------------
  std::uint64_t records_in = 0;       ///< accepted into the pipeline
  std::uint64_t records_processed = 0;///< applied to shard aggregates
  std::uint64_t records_dropped = 0;  ///< rejected by backpressure
  std::uint64_t records_late = 0;     ///< arrived behind the watermark
  std::array<std::uint64_t, 4> records_by_source{};  ///< job/task/ras/io
  util::UnixSeconds watermark = 0;
  std::int64_t watermark_lag_seconds = 0;
  std::size_t queue_depth = 0;  ///< queued or being applied at shards
  bool finished = false;

  // -- observation window ----------------------------------------------
  util::UnixSeconds window_begin = 0;  ///< earliest event time seen
  util::UnixSeconds window_end = 0;    ///< latest event time seen + 1
  double span_days = 0.0;

  // -- streaming E02: exit breakdown ------------------------------------
  core::ExitBreakdown exit_breakdown;
  double total_core_hours = 0.0;

  // -- rolling window (trailing `window_seconds` of event time) ---------
  std::int64_t window_seconds = 0;
  std::uint64_t window_jobs = 0;
  std::uint64_t window_failures = 0;
  double window_failure_rate = 0.0;
  std::array<std::uint64_t, 3> window_severity{};  ///< streaming E01 mix

  // -- lifetime severity mix -------------------------------------------
  std::array<std::uint64_t, 3> severity_totals{};

  // -- streaming E08: interruptions / MTTI ------------------------------
  std::uint64_t fatal_input_events = 0;
  std::uint64_t interruptions = 0;
  core::MttiResult mtti;

  // -- runtime quantile sketch ------------------------------------------
  std::uint64_t runtime_samples = 0;
  double quantile_epsilon = 0.0;  ///< documented rank-error bound
  double runtime_p50 = 0.0;
  double runtime_p90 = 0.0;
  double runtime_p99 = 0.0;

  // -- streaming E03: heavy hitters -------------------------------------
  std::uint64_t heavy_hitter_error_bound = 0;
  std::vector<TopEntry> top_users_by_failures;
  std::vector<TopEntry> top_projects_by_failures;
  std::vector<TopEntry> top_boards_by_events;

  // -- misc per-source aggregates ---------------------------------------
  std::uint64_t task_failures = 0;
  std::uint64_t io_bytes_total = 0;

  // -- causal tracing (sampled per-record stage latency) ----------------
  std::uint32_t trace_sample_period = 0;  ///< 0 when tracing is off
  std::uint64_t traces_sampled = 0;
  std::vector<obs::CausalStageStat> causal_stages;  ///< ring/reorder/...
  double causal_e2e_p50_us = 0.0;  ///< emit -> apply, sampled records
  double causal_e2e_p99_us = 0.0;

  // -- attached router operators ----------------------------------------
  /// (section name, pre-serialized JSON object) pairs spliced verbatim
  /// into to_json() — how plug-in operators (stream/router_operator.hpp,
  /// e.g. the predictor) surface their state without the stream library
  /// knowing their schema.
  std::vector<std::pair<std::string, std::string>> sections;

  /// Machine-readable form (single JSON object, newline-terminated).
  std::string to_json() const;
};

}  // namespace failmine::stream
