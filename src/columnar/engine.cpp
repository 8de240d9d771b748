#include "columnar/engine.hpp"

#include "obs/trace.hpp"

namespace failmine::columnar {

namespace {

using Bucket = analysis::TimeProfile::Bucket;

/// E11 over the job table: submissions, or failures by end time.
analysis::TimeProfile job_profile(const JobTable& jobs, Bucket bucket,
                                  util::UnixSeconds origin, bool failures) {
  analysis::TimeProfile p(bucket, origin);
  jobs.start_time.for_each([&](std::size_t i, util::UnixSeconds start) {
    if (!failures)
      p.add(start - jobs.wait_seconds[i]);
    else if (jobs.failed.test(i))
      p.add(start + jobs.runtime_seconds[i]);
  });
  return p;
}

analysis::TimeProfile event_profile(const RasTable& ras, Bucket bucket,
                                    util::UnixSeconds origin,
                                    bool fatal_only) {
  constexpr auto kFatal = static_cast<std::size_t>(raslog::Severity::kFatal);
  analysis::TimeProfile p(bucket, origin);
  ras.timestamp.for_each([&](std::size_t i, util::UnixSeconds t) {
    if (!fatal_only || ras.severity_bits[kFatal].test(i)) p.add(t);
  });
  return p;
}

}  // namespace

analysis::JobGroups group_jobs(const JobTable& jobs, analysis::JobKey key,
                               const topology::MachineConfig& machine) {
  const auto scan = [&](const auto& keys) {
    analysis::JobGroups groups(machine, key);
    groups.add_batch(jobs.rows(), [&](std::size_t i) {
      return analysis::JobFacts{keys[i], jobs.exit_class_code[i],
                                jobs.nodes_used[i], jobs.runtime_seconds[i]};
    });
    return groups;
  };
  if (key == analysis::JobKey::kUser) return scan(jobs.user_id);
  if (key == analysis::JobKey::kProject) return scan(jobs.project_id);
  return scan(jobs.exit_class_code);
}

QueryEngine::QueryEngine(const joblog::JobLog& jobs,
                         const tasklog::TaskLog& tasks,
                         const raslog::RasLog& ras, const iolog::IoLog& io,
                         const topology::MachineConfig& machine)
    : jobs_(&jobs), tasks_(&tasks), ras_(&ras), io_(&io), machine_(machine) {}

QueryEngine::QueryEngine(const ColumnarDataset& dataset,
                         const topology::MachineConfig& machine)
    : dataset_(&dataset), machine_(machine) {}

core::DatasetSummary QueryEngine::dataset_summary() const {
  if (!dataset_)
    return core::JointAnalyzer(*jobs_, *tasks_, *ras_, *io_, machine_)
        .dataset_summary();
  FAILMINE_TRACE_SPAN("columnar.e01.dataset_summary");
  const JobTable& jobs = dataset_->jobs;
  const RasTable& ras = dataset_->ras;
  analysis::DatasetTotals totals(machine_);
  jobs.start_time.for_each([&](std::size_t i, util::UnixSeconds start) {
    totals.add_job(start - jobs.wait_seconds[i],
                   start + jobs.runtime_seconds[i], jobs.nodes_used[i],
                   jobs.runtime_seconds[i]);
  });
  if (ras.rows() > 0) {
    analysis::SeverityCounts counts{};
    for (std::size_t sev = 0; sev < counts.size(); ++sev)
      counts[sev] = ras.severity_bits[sev].count();
    totals.add_events(counts, ras.timestamp.front(), ras.timestamp.back());
  }
  totals.tasks = dataset_->tasks.rows();
  totals.io_records = dataset_->io.rows();
  return core::dataset_summary_of(totals);
}

core::ExitBreakdown QueryEngine::exit_breakdown() const {
  if (!dataset_)
    return core::JointAnalyzer(*jobs_, *tasks_, *ras_, *io_, machine_)
        .exit_breakdown();
  FAILMINE_TRACE_SPAN("columnar.e02.exit_breakdown");
  return core::exit_breakdown_of(
      group_jobs(dataset_->jobs, analysis::JobKey::kExitClass, machine_));
}

std::vector<analysis::GroupStats> QueryEngine::per_user_stats() const {
  if (!dataset_) return analysis::per_user_stats(*jobs_, machine_);
  FAILMINE_TRACE_SPAN("columnar.e03.per_user");
  return group_jobs(dataset_->jobs, analysis::JobKey::kUser, machine_)
      .finalize();
}

std::vector<analysis::GroupStats> QueryEngine::per_project_stats() const {
  if (!dataset_) return analysis::per_project_stats(*jobs_, machine_);
  FAILMINE_TRACE_SPAN("columnar.e03.per_project");
  return group_jobs(dataset_->jobs, analysis::JobKey::kProject, machine_)
      .finalize();
}

analysis::RasBreakdown QueryEngine::ras_breakdown() const {
  if (!dataset_) return analysis::ras_breakdown(*ras_);
  FAILMINE_TRACE_SPAN("columnar.e06.ras_breakdown");
  const RasTable& ras = dataset_->ras;
  analysis::RasCounts counts;
  for (std::size_t i = 0; i < ras.rows(); ++i)
    counts.add(ras.severity_code[i], ras.component_code[i],
               ras.category_code[i]);
  return counts.finalize();
}

analysis::HourlyProfile QueryEngine::submissions_by_hour() const {
  if (!dataset_) return analysis::submissions_by_hour(*jobs_);
  FAILMINE_TRACE_SPAN("columnar.e11.submissions_by_hour");
  return job_profile(dataset_->jobs, Bucket::kHourOfDay, 0, false).hourly();
}

analysis::WeekdayProfile QueryEngine::submissions_by_weekday() const {
  if (!dataset_) return analysis::submissions_by_weekday(*jobs_);
  FAILMINE_TRACE_SPAN("columnar.e11.submissions_by_weekday");
  return job_profile(dataset_->jobs, Bucket::kDayOfWeek, 0, false).weekly();
}

analysis::HourlyProfile QueryEngine::failures_by_hour() const {
  if (!dataset_) return analysis::failures_by_hour(*jobs_);
  FAILMINE_TRACE_SPAN("columnar.e11.failures_by_hour");
  return job_profile(dataset_->jobs, Bucket::kHourOfDay, 0, true).hourly();
}

analysis::HourlyProfile QueryEngine::events_by_hour() const {
  if (!dataset_) return analysis::events_by_hour(*ras_);
  FAILMINE_TRACE_SPAN("columnar.e11.events_by_hour");
  return event_profile(dataset_->ras, Bucket::kHourOfDay, 0, false).hourly();
}

std::vector<std::uint64_t> QueryEngine::monthly_submissions(
    util::UnixSeconds origin) const {
  if (!dataset_) return analysis::monthly_submissions(*jobs_, origin);
  return job_profile(dataset_->jobs, Bucket::kMonth, origin, false).finalize();
}

std::vector<std::uint64_t> QueryEngine::monthly_failures(
    util::UnixSeconds origin) const {
  if (!dataset_) return analysis::monthly_failures(*jobs_, origin);
  return job_profile(dataset_->jobs, Bucket::kMonth, origin, true).finalize();
}

std::vector<std::uint64_t> QueryEngine::monthly_fatal_events(
    util::UnixSeconds origin) const {
  if (!dataset_) return analysis::monthly_fatal_events(*ras_, origin);
  return event_profile(dataset_->ras, Bucket::kMonth, origin, true)
      .finalize();
}

}  // namespace failmine::columnar
