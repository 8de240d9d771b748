#include "analysis/user_stats.hpp"

#include "analysis/accumulators.hpp"
#include "obs/trace.hpp"
#include "stats/concentration.hpp"
#include "util/error.hpp"

namespace failmine::analysis {

std::vector<GroupStats> per_user_stats(const joblog::JobLog& log,
                                       const topology::MachineConfig& machine) {
  FAILMINE_TRACE_SPAN("e03.user_stats.per_user");
  return group_jobs(log.jobs(), JobKey::kUser, machine).finalize();
}

std::vector<GroupStats> per_project_stats(const joblog::JobLog& log,
                                          const topology::MachineConfig& machine) {
  FAILMINE_TRACE_SPAN("e03.user_stats.per_project");
  return group_jobs(log.jobs(), JobKey::kProject, machine).finalize();
}

std::vector<double> metric_column(const std::vector<GroupStats>& stats,
                                  GroupMetric metric) {
  std::vector<double> col;
  col.reserve(stats.size());
  for (const auto& g : stats) {
    switch (metric) {
      case GroupMetric::kJobs: col.push_back(static_cast<double>(g.jobs)); break;
      case GroupMetric::kFailures:
        col.push_back(static_cast<double>(g.failures));
        break;
      case GroupMetric::kCoreHours: col.push_back(g.core_hours); break;
    }
  }
  return col;
}

ConcentrationSummary concentration(const std::vector<GroupStats>& stats,
                                   GroupMetric metric) {
  if (stats.empty())
    throw failmine::DomainError("concentration requires non-empty stats");
  const auto col = metric_column(stats, metric);
  ConcentrationSummary s;
  s.group_count = stats.size();
  s.gini = stats::gini(col);
  s.top1_share = stats::top_k_share(col, 1);
  s.top10_share = stats::top_k_share(col, 10);
  s.groups_for_half = stats::contributors_for_share(col, 0.5);
  return s;
}

}  // namespace failmine::analysis
