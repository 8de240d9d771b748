// failmine/columnar/engine.hpp
//
// One query surface over either representation.
//
// A QueryEngine borrows either the four AoS logs (row backend) or a
// ColumnarDataset (columnar backend) and exposes the shared analyses —
// E01/E02/E03/E06/E11 — with identical result types. Both backends are
// thin drivers of the same accumulators (analysis/accumulators.hpp):
// the row branch feeds them from records, the columnar branch from the
// few columns an analysis reads (E02 reads 9 bytes per job, E06 3 code
// bytes per event), so the answers are bit-identical by construction.
// The CLI and the benches pick the backend with --columnar; everything
// downstream of the engine is representation-agnostic.

#pragma once

#include <cstdint>
#include <vector>

#include "analysis/accumulators.hpp"
#include "columnar/table.hpp"
#include "core/joint_analyzer.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "tasklog/task.hpp"
#include "topology/machine.hpp"
#include "util/time.hpp"

namespace failmine::columnar {

/// Column driver of E02/E03: one scan of the job table keyed by `key` —
/// the same JobGroups accumulator analysis::group_jobs feeds from rows.
analysis::JobGroups group_jobs(const JobTable& jobs, analysis::JobKey key,
                               const topology::MachineConfig& machine);

class QueryEngine {
 public:
  /// Row backend: borrows the four logs (they must outlive the engine).
  QueryEngine(const joblog::JobLog& jobs, const tasklog::TaskLog& tasks,
              const raslog::RasLog& ras, const iolog::IoLog& io,
              const topology::MachineConfig& machine);

  /// Columnar backend: borrows the dataset.
  QueryEngine(const ColumnarDataset& dataset,
              const topology::MachineConfig& machine);

  bool is_columnar() const { return dataset_ != nullptr; }
  const topology::MachineConfig& machine() const { return machine_; }

  core::DatasetSummary dataset_summary() const;
  core::ExitBreakdown exit_breakdown() const;
  std::vector<analysis::GroupStats> per_user_stats() const;
  std::vector<analysis::GroupStats> per_project_stats() const;
  analysis::RasBreakdown ras_breakdown() const;
  analysis::HourlyProfile submissions_by_hour() const;
  analysis::WeekdayProfile submissions_by_weekday() const;
  analysis::HourlyProfile failures_by_hour() const;
  analysis::HourlyProfile events_by_hour() const;
  std::vector<std::uint64_t> monthly_submissions(util::UnixSeconds origin) const;
  std::vector<std::uint64_t> monthly_failures(util::UnixSeconds origin) const;
  std::vector<std::uint64_t> monthly_fatal_events(
      util::UnixSeconds origin) const;

 private:
  const joblog::JobLog* jobs_ = nullptr;
  const tasklog::TaskLog* tasks_ = nullptr;
  const raslog::RasLog* ras_ = nullptr;
  const iolog::IoLog* io_ = nullptr;
  const ColumnarDataset* dataset_ = nullptr;
  topology::MachineConfig machine_;
};

}  // namespace failmine::columnar
