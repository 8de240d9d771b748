#include "analysis/accumulators.hpp"

#include "obs/metrics.hpp"

namespace failmine::analysis {

void count_groupby_sizing(bool sparse) {
  obs::metrics().counter("analysis.groupby_sparse").add(sparse ? 1 : 0);
}

void DatasetTotals::add_events(const SeverityCounts& counts,
                               util::UnixSeconds first,
                               util::UnixSeconds last) {
  window.add_event(first);
  window.add_event(last);
  for (std::size_t sev = 0; sev < counts.size(); ++sev) {
    ras_by_severity[sev] += counts[sev];
    ras_events += counts[sev];
  }
}

void DatasetTotals::merge(const DatasetTotals& other) {
  window.merge(other.window);
  jobs += other.jobs;
  tasks += other.tasks;
  ras_events += other.ras_events;
  for (std::size_t sev = 0; sev < ras_by_severity.size(); ++sev)
    ras_by_severity[sev] += other.ras_by_severity[sev];
  io_records += other.io_records;
  total_core_hours += other.total_core_hours;
}

JobGroups::JobGroups(const topology::MachineConfig& machine, JobKey key)
    : by_class_(key == JobKey::kExitClass),
      cores_(static_cast<double>(machine.cores_per_node)),
      groups_(by_class_ ? kExitClassSlots : 0) {
  for (std::size_t c = 0; c < kExitClassSlots; ++c) {
    const joblog::ExitClass cls = joblog::kAllExitClasses[c];
    const bool failed = joblog::is_failure(cls);
    flags_.fail[c] = failed ? 1 : 0;
    flags_.user[c] = failed && joblog::is_user_caused(cls) ? 1 : 0;
    flags_.system[c] = failed && joblog::is_system_caused(cls) ? 1 : 0;
    flags_.fail_mult[c] = failed ? 1.0 : 0.0;
  }
}

void JobGroups::merge(const JobGroups& other) {
  groups_.merge(other.groups_, [](GroupStats& a, const GroupStats& b) {
    a.jobs += b.jobs;
    a.failures += b.failures;
    a.user_caused_failures += b.user_caused_failures;
    a.system_caused_failures += b.system_caused_failures;
    a.core_hours += b.core_hours;
    a.failed_core_hours += b.failed_core_hours;
  });
}

std::vector<GroupStats> JobGroups::finalize() const {
  std::vector<GroupStats> out;
  groups_.for_each([&](std::uint32_t key, const GroupStats& g) {
    if (g.jobs == 0) return;
    GroupStats& o = out.emplace_back(g);
    o.group_id = key;
    if (!by_class_) return;
    // Bit-exact: a sum of ch * 0.0 is 0.0 and a sum of ch * 1.0 is the sum.
    o.failures = g.jobs * flags_.fail[key];
    o.user_caused_failures = g.jobs * flags_.user[key];
    o.system_caused_failures = g.jobs * flags_.system[key];
    o.failed_core_hours = g.core_hours * flags_.fail_mult[key];
  });
  return out;
}

JobGroups group_jobs(const std::vector<joblog::JobRecord>& jobs, JobKey key,
                     const topology::MachineConfig& machine) {
  JobGroups groups(machine, key);
  groups.add_batch(jobs.size(),
                   [&](std::size_t i) { return JobFacts::of(jobs[i], key); });
  return groups;
}

RasCounts::RasCounts()
    : by_component_(std::size(raslog::kAllComponents)),
      by_category_(std::size(raslog::kAllCategories)) {}

void RasCounts::merge(const RasCounts& other) {
  const auto add = [](SeverityCounts& a, const SeverityCounts& b) {
    for (std::size_t sev = 0; sev < a.size(); ++sev) a[sev] += b[sev];
  };
  by_component_.merge(other.by_component_, add);
  by_category_.merge(other.by_category_, add);
}

RasBreakdown RasCounts::finalize() const {
  RasBreakdown b;
  by_component_.for_each([&](std::uint32_t code, const SeverityCounts& c) {
    if (c == SeverityCounts{}) return;
    b.by_component[static_cast<raslog::Component>(code)] = c;
    for (std::size_t sev = 0; sev < c.size(); ++sev) {
      b.by_severity[sev] += c[sev];
      b.total_events += c[sev];
    }
  });
  by_category_.for_each([&](std::uint32_t code, const SeverityCounts& c) {
    if (c != SeverityCounts{})
      b.by_category[static_cast<raslog::Category>(code)] = c;
  });
  return b;
}

TimeProfile::TimeProfile(Bucket bucket, util::UnixSeconds origin)
    : bucket_(bucket),
      origin_(origin),
      counts_(bucket == Bucket::kHourOfDay   ? 24
              : bucket == Bucket::kDayOfWeek ? 7
                                             : 0) {}

void TimeProfile::add(util::UnixSeconds t) {
  switch (bucket_) {
    case Bucket::kHourOfDay:
      ++counts_[static_cast<std::uint32_t>(util::hour_of_day(t))];
      return;
    case Bucket::kDayOfWeek:
      ++counts_[static_cast<std::uint32_t>(util::day_of_week(t))];
      return;
    case Bucket::kMonth:
      if (const int month = util::month_index(origin_, t); month >= 0)
        ++counts_.grow(static_cast<std::uint32_t>(month));
      return;
  }
}

void TimeProfile::merge(const TimeProfile& other) {
  counts_.merge(other.counts_,
                [](std::uint64_t& a, std::uint64_t b) { a += b; });
}

std::vector<std::uint64_t> TimeProfile::finalize() const {
  std::vector<std::uint64_t> out;
  counts_.for_each([&](std::uint32_t key, std::uint64_t n) {
    out.resize(std::size_t{key} + 1, 0);
    out[key] = n;
  });
  return out;
}

}  // namespace failmine::analysis
