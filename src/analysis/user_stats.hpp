// failmine/analysis/user_stats.hpp
//
// Per-user and per-project aggregation of the job log (takeaway T-B:
// failures concentrate on few users/projects).

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "joblog/job.hpp"
#include "topology/machine.hpp"

namespace failmine::analysis {

/// Aggregate counters for one user or project.
struct GroupStats {
  std::uint32_t group_id = 0;
  std::uint64_t jobs = 0;
  std::uint64_t failures = 0;
  std::uint64_t user_caused_failures = 0;
  std::uint64_t system_caused_failures = 0;
  double core_hours = 0.0;
  double failed_core_hours = 0.0;

  double failure_rate() const {
    return jobs == 0 ? 0.0 : static_cast<double>(failures) / static_cast<double>(jobs);
  }
};

/// Per-user stats, keyed by user id, one entry per user seen in the log:
/// analysis::JobGroups (accumulators.hpp) keyed by user, the E03
/// accumulator the columnar backend runs too.
std::vector<GroupStats> per_user_stats(const joblog::JobLog& log,
                                       const topology::MachineConfig& machine);

/// Per-project stats.
std::vector<GroupStats> per_project_stats(const joblog::JobLog& log,
                                          const topology::MachineConfig& machine);

/// Concentration summary of a stats vector with respect to a metric.
struct ConcentrationSummary {
  double gini = 0.0;
  double top1_share = 0.0;    ///< share of the single heaviest group
  double top10_share = 0.0;   ///< share of the 10 heaviest groups
  std::size_t groups_for_half = 0;  ///< groups needed to cover 50 %
  std::size_t group_count = 0;
};

/// Metric selector for concentration analyses.
enum class GroupMetric { kJobs, kFailures, kCoreHours };

ConcentrationSummary concentration(const std::vector<GroupStats>& stats,
                                   GroupMetric metric);

/// Extracts the metric column (ordered as `stats`).
std::vector<double> metric_column(const std::vector<GroupStats>& stats,
                                  GroupMetric metric);

}  // namespace failmine::analysis
