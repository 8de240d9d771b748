// failmine/core/joint_analyzer.hpp
//
// Facade binding the four log sources into the paper's joint analyses.
//
// A JointAnalyzer borrows the four logs (it does not own them) and exposes
// each headline analysis as one method. The paper tables of
// `failmine_cli experiments` and the takeaway report are thin formatters
// over this class.
//
// The const analyses hold no mutable state: they only read the logs and
// the totals fixed at construction, so any of them may run concurrently
// with any other on one analyzer (the takeaway report runs them side by
// side).

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/accumulators.hpp"
#include "core/attribution.hpp"
#include "core/distfit_study.hpp"
#include "core/event_filter.hpp"
#include "core/mtti.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "tasklog/task.hpp"
#include "topology/machine.hpp"
#include "util/time.hpp"

namespace failmine::core {

/// Exit-status breakdown (experiment E02).
struct ExitBreakdownRow {
  joblog::ExitClass exit_class{};
  std::uint64_t jobs = 0;
  double core_hours = 0.0;
  double share_of_jobs = 0.0;      ///< fraction of all jobs
  double share_of_failures = 0.0;  ///< fraction of failed jobs (0 for success)
};

struct ExitBreakdown {
  std::vector<ExitBreakdownRow> rows;  ///< one per class, catalog order
  std::uint64_t total_jobs = 0;
  std::uint64_t total_failures = 0;
  double user_caused_share = 0.0;    ///< of failures
  double system_caused_share = 0.0;  ///< of failures
};

/// E02's finalizer: the breakdown of a job group-by keyed by exit class
/// (analysis::group_jobs / columnar::group_jobs with JobKey::kExitClass,
/// or merged stream shards).
ExitBreakdown exit_breakdown_of(const analysis::JobGroups& by_exit_class);

/// Dataset summary (experiment E01).
struct DatasetSummary {
  double span_days = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ras_events = 0;
  std::array<std::uint64_t, 3> ras_by_severity{};  ///< INFO, WARN, FATAL
  std::uint64_t io_records = 0;
  double total_core_hours = 0.0;
};

/// E01's finalizer. Throws DomainError when no job was added.
DatasetSummary dataset_summary_of(const analysis::DatasetTotals& totals);

class JointAnalyzer {
 public:
  /// Borrows all four logs; they must outlive the analyzer.
  JointAnalyzer(const joblog::JobLog& jobs, const tasklog::TaskLog& tasks,
                const raslog::RasLog& ras, const iolog::IoLog& io,
                const topology::MachineConfig& machine);

  /// E01: totals across the four sources.
  DatasetSummary dataset_summary() const;

  /// E02: jobs and core-hours per exit class, with cause attribution.
  ExitBreakdown exit_breakdown() const;

  /// E05: distribution fitting per failure class.
  std::vector<ClassFitRow> runtime_distribution_study(
      std::size_t min_sample = 50) const;

  /// E07/E08: similarity filtering + MTTI over the RAS log.
  FilteredMtti interruption_analysis(const FilterConfig& config) const;

  /// E13: distribution fit of intervals between filtered interruptions.
  ClassFitRow interruption_interval_fit(const FilterConfig& config) const;

  /// E10: correlations of attributed RAS events with per-user activity.
  struct RasCorrelations {
    double events_vs_core_hours = 0.0;    ///< Spearman
    double events_vs_jobs = 0.0;          ///< Spearman
    double fatals_vs_core_hours = 0.0;    ///< Spearman
    std::size_t users = 0;
  };
  RasCorrelations ras_user_correlations() const;

  /// Observation window inferred from the job and RAS logs. Computed once
  /// at construction (the logs are immutable for the analyzer's lifetime)
  /// — these are O(1) accessors, safe to call in per-job loops.
  util::UnixSeconds window_begin() const { return totals_.window.begin; }
  util::UnixSeconds window_end() const { return totals_.window.end; }

  const topology::MachineConfig& machine() const { return machine_; }
  const joblog::JobLog& jobs() const { return jobs_; }
  const tasklog::TaskLog& tasks() const { return tasks_; }
  const raslog::RasLog& ras() const { return ras_; }
  const iolog::IoLog& io() const { return io_; }

 private:
  const joblog::JobLog& jobs_;
  const tasklog::TaskLog& tasks_;
  const raslog::RasLog& ras_;
  const iolog::IoLog& io_;
  // By value: MachineConfig is a handful of ints, and holding a reference
  // would silently dangle when callers pass MachineConfig::mira() inline.
  topology::MachineConfig machine_;
  analysis::DatasetTotals totals_;  ///< E01, observation window included
};

}  // namespace failmine::core
