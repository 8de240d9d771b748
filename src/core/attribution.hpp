// failmine/core/attribution.hpp
//
// Joint job <-> RAS-event attribution.
//
// The central instrument of the paper's joint analysis: given a located,
// timestamped RAS event, find the job whose partition covered that
// hardware at that moment. Built once per dataset, the index keeps, per
// global midplane, one lane of job occupations ordered by (start, job id).
// Each entry also carries `reach`, the latest end over it and every
// earlier entry of its lane. A lookup at time t starts from the last entry
// starting by t: if its reach is below t no occupation runs at t, and
// otherwise the walk back from it ends at the first entry still running.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "topology/machine.hpp"

namespace failmine::core {

/// Per-job attribution counters.
struct JobEventStats {
  std::uint64_t job_id = 0;
  std::uint64_t info_events = 0;
  std::uint64_t warn_events = 0;
  std::uint64_t fatal_events = 0;

  std::uint64_t total() const { return info_events + warn_events + fatal_events; }
};

/// Spatio-temporal index from hardware locations to running jobs.
///
/// When allocations overlap, the latest-starting covering job wins: the one
/// with the latest start, and among equal starts the highest job id. A
/// lookup walks back at most 64 occupations from the latest one starting at
/// or before the event; a covering job further back is not found, and each
/// such miss counts in `core.attribution.walk_capped`.
class AttributionIndex {
 public:
  AttributionIndex(const joblog::JobLog& jobs,
                   const topology::MachineConfig& machine);

  /// The job whose partition covered `event.location` at `event.timestamp`
  /// (latest-starting match if allocations overlap). Events located above
  /// midplane level (rack-level) match any job on either midplane of the
  /// rack, the first midplane first. Returns nullopt for events on idle
  /// hardware. O(log n) per call.
  std::optional<std::uint64_t> attribute(const raslog::RasEvent& event) const;

  /// Attributes every event of the log, as attribute() does, in one sweep
  /// with a forward cursor per midplane; a cursor seeks back when an
  /// event's time goes backwards (a log appended to but not finalized).
  /// Returns per-job counters for jobs with at least one attributed event,
  /// ordered by job id.
  std::vector<JobEventStats> attribute_all(const raslog::RasLog& log) const;

 private:
  /// One job's stay on one midplane; its job is occupant_ at the same
  /// position, which keeps the entries the walk reads at 24 bytes.
  struct Occupation {
    util::UnixSeconds start;
    util::UnixSeconds end;
    util::UnixSeconds reach;  ///< max end over this and every earlier entry
  };

  /// One midplane's occupations and their occupants, entry for entry.
  struct Lane {
    std::span<const Occupation> occupations;
    std::span<const std::uint32_t> occupants;
  };

  /// [first, last) global midplanes an event can hit: its own, or every
  /// midplane of its rack for a rack-level event.
  std::pair<int, int> lanes_of(const raslog::RasEvent& event) const;
  Lane lane(int global_midplane) const;
  /// The covering job among lane entries [0, pos), which start at or
  /// before t.
  std::optional<std::uint64_t> walk_back(const Lane& lane, std::size_t pos,
                                         util::UnixSeconds t) const;

  // By value, for the same lifetime-safety reason as JointAnalyzer.
  topology::MachineConfig machine_;
  /// Every lane back to back; lane m is [lane_begin_[m], lane_begin_[m+1]).
  std::vector<Occupation> occupations_;
  std::vector<std::uint32_t> occupant_;  ///< index into job_ids_
  std::vector<std::size_t> lane_begin_;
  std::vector<std::uint64_t> job_ids_;   ///< in the JobLog's order
};

/// Per-user aggregation of attributed events joined with core-hours —
/// the inputs to the paper's RAS/user and RAS/core-hour correlations
/// (experiment E10).
struct UserEventCorrelationInput {
  std::vector<double> events_per_user;       ///< attributed events
  std::vector<double> fatal_events_per_user; ///< attributed FATALs
  std::vector<double> core_hours_per_user;
  std::vector<double> jobs_per_user;
  std::vector<std::uint32_t> user_ids;       ///< row labels
};

UserEventCorrelationInput user_event_correlation_input(
    const joblog::JobLog& jobs, const raslog::RasLog& ras,
    const topology::MachineConfig& machine);

}  // namespace failmine::core
