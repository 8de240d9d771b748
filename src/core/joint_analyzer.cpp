#include "core/joint_analyzer.hpp"

#include "obs/trace.hpp"
#include "stats/correlation.hpp"
#include "util/error.hpp"

namespace failmine::core {

JointAnalyzer::JointAnalyzer(const joblog::JobLog& jobs,
                             const tasklog::TaskLog& tasks,
                             const raslog::RasLog& ras, const iolog::IoLog& io,
                             const topology::MachineConfig& machine)
    : jobs_(jobs), tasks_(tasks), ras_(ras), io_(io), machine_(machine),
      totals_(machine) {
  if (jobs.empty()) throw failmine::DomainError("JointAnalyzer needs jobs");
  // One pass over the logs fixes the E01 totals, observation window
  // included, for good; the window accessors used to rescan the whole
  // log on every call, which turned per-job loops calling them quadratic.
  for (const auto& j : jobs_.jobs())
    totals_.add_job(j.submit_time, j.end_time, j.nodes_used,
                    j.runtime_seconds());
  if (!ras_.empty())
    totals_.add_events(ras_.severity_counts(),
                       ras_.events().front().timestamp,
                       ras_.events().back().timestamp);
  totals_.tasks = tasks_.size();
  totals_.io_records = io_.size();
}

DatasetSummary dataset_summary_of(const analysis::DatasetTotals& totals) {
  if (totals.jobs == 0)
    throw failmine::DomainError("dataset summary needs jobs");
  DatasetSummary s;
  s.span_days = static_cast<double>(totals.window.end - totals.window.begin) /
                static_cast<double>(util::kSecondsPerDay);
  s.jobs = totals.jobs;
  s.tasks = totals.tasks;
  s.ras_events = totals.ras_events;
  s.ras_by_severity = totals.ras_by_severity;
  s.io_records = totals.io_records;
  s.total_core_hours = totals.total_core_hours;
  return s;
}

DatasetSummary JointAnalyzer::dataset_summary() const {
  FAILMINE_TRACE_SPAN("e01.dataset_summary");
  return dataset_summary_of(totals_);
}

ExitBreakdown exit_breakdown_of(const analysis::JobGroups& by_exit_class) {
  ExitBreakdown b;
  std::uint64_t user_caused = 0;
  std::uint64_t system_caused = 0;
  for (const analysis::GroupStats& g : by_exit_class.finalize()) {
    b.rows.push_back({joblog::kAllExitClasses[g.group_id], g.jobs,
                      g.core_hours});
    b.total_jobs += g.jobs;
    b.total_failures += g.failures;
    user_caused += g.user_caused_failures;
    system_caused += g.system_caused_failures;
  }
  const auto share = [](std::uint64_t n, std::uint64_t of) {
    return of > 0 ? static_cast<double>(n) / static_cast<double>(of) : 0.0;
  };
  for (ExitBreakdownRow& row : b.rows) {
    row.share_of_jobs = share(row.jobs, b.total_jobs);
    if (joblog::is_failure(row.exit_class))
      row.share_of_failures = share(row.jobs, b.total_failures);
  }
  b.user_caused_share = share(user_caused, b.total_failures);
  b.system_caused_share = share(system_caused, b.total_failures);
  return b;
}

ExitBreakdown JointAnalyzer::exit_breakdown() const {
  FAILMINE_TRACE_SPAN("e02.exit_breakdown");
  return exit_breakdown_of(analysis::group_jobs(
      jobs_.jobs(), analysis::JobKey::kExitClass, machine_));
}

std::vector<ClassFitRow> JointAnalyzer::runtime_distribution_study(
    std::size_t min_sample) const {
  FAILMINE_TRACE_SPAN("e05.distfit_runtime");
  return fit_by_exit_class(jobs_, min_sample);
}

FilteredMtti JointAnalyzer::interruption_analysis(
    const FilterConfig& config) const {
  FAILMINE_TRACE_SPAN("e08.mtti");
  return filtered_mtti(ras_, config, window_begin(), window_end());
}

ClassFitRow JointAnalyzer::interruption_interval_fit(
    const FilterConfig& config) const {
  FAILMINE_TRACE_SPAN("e13.interruption_fit");
  const FilteredMtti fm = interruption_analysis(config);
  if (fm.mtti.intervals_days.size() < 2)
    throw failmine::DomainError(
        "not enough interruptions to fit an interval distribution");
  return fit_sample(fm.mtti.intervals_days);
}

JointAnalyzer::RasCorrelations JointAnalyzer::ras_user_correlations() const {
  FAILMINE_TRACE_SPAN("e10.ras_correlation");
  const auto input = user_event_correlation_input(jobs_, ras_, machine_);
  RasCorrelations c;
  c.users = input.user_ids.size();
  if (c.users < 3) throw failmine::DomainError("too few users to correlate");
  // A tiny trace can leave a column constant (e.g. no attributed FATALs at
  // all); report 0 correlation for that column instead of failing the
  // whole joint analysis.
  auto safe_spearman = [](const std::vector<double>& x,
                          const std::vector<double>& y) {
    try {
      return stats::spearman(x, y);
    } catch (const failmine::DomainError&) {
      return 0.0;
    }
  };
  c.events_vs_core_hours =
      safe_spearman(input.events_per_user, input.core_hours_per_user);
  c.events_vs_jobs = safe_spearman(input.events_per_user, input.jobs_per_user);
  c.fatals_vs_core_hours =
      safe_spearman(input.fatal_events_per_user, input.core_hours_per_user);
  return c;
}

}  // namespace failmine::core
