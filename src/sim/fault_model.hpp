// failmine/sim/fault_model.hpp
//
// RAS fault injection.
//
// The fault model owns three behaviours the paper's RAS analyses depend on:
//
//  1. *System-caused job failures* (takeaway T-A's 0.6 % share): every job
//     is exposed to a hazard proportional to its node-seconds; struck jobs
//     are truncated at an inverse-Gaussian interruption time and re-labeled
//     SYSTEM_{HARDWARE,SOFTWARE,IO}.
//  2. *Fatal episodes*: each system failure (plus a low rate of idle-
//     hardware episodes) produces a burst of FATAL events clustered in
//     time (minutes) and space (same board/midplane) — the redundancy the
//     similarity-based filter (core/event_filter) is designed to collapse.
//  3. *Background chatter*: INFO/WARN events drawn from the message
//     catalog's rate weights, with a configurable share concentrated on a
//     small set of "weak" boards (takeaway T-D's locality).

#pragma once

#include <optional>
#include <vector>

#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "sim/config.hpp"
#include "util/rng.hpp"

namespace failmine::sim {

/// One ground-truth interruption episode (before event-level expansion).
struct FatalEpisode {
  util::UnixSeconds time = 0;
  topology::Location origin = topology::Location::rack(0, 0);  ///< board level
  std::optional<std::uint64_t> victim_job;  ///< job the episode killed, if any
};

class FaultModel {
 public:
  /// Selects the weak-board set deterministically from `rng`.
  FaultModel(const SimConfig& config, util::Rng& rng);

  /// Converts hazard-struck jobs to system failures in place (truncating
  /// end_time) and returns all fatal episodes (job-linked + idle) in time
  /// order.
  std::vector<FatalEpisode> apply_system_failures(
      std::vector<joblog::JobRecord>& jobs, util::Rng& rng) const;

  /// Expands episodes into FATAL bursts and adds background INFO/WARN
  /// chatter. Events come back in non-decreasing time order with record
  /// ids 1..n in that order: the draws are sorted once by std::sort on
  /// time, so events with equal times keep the order that sort gives
  /// them, and each RasEvent is built once, in place.
  std::vector<raslog::RasEvent> generate_events(
      const std::vector<FatalEpisode>& episodes, util::Rng& rng) const;

  /// The boards designated as locality hot spots (board-level locations).
  const std::vector<topology::Location>& weak_boards() const {
    return weak_boards_;
  }

 private:
  topology::Location random_board(util::Rng& rng) const;
  topology::Location locality_board(util::Rng& rng) const;
  /// Re-levels a board-level location to `level` (descending randomly to
  /// card/core or ascending to midplane/rack).
  topology::Location at_level(const topology::Location& board,
                              topology::Level level, util::Rng& rng) const;

  // By value: a reference would dangle when callers construct the model
  // from a temporary config.
  SimConfig config_;
  std::vector<topology::Location> weak_boards_;
};

}  // namespace failmine::sim
