#include "analysis/temporal.hpp"

#include <algorithm>

#include "analysis/accumulators.hpp"
#include "obs/trace.hpp"

namespace failmine::analysis {

namespace {

using Bucket = TimeProfile::Bucket;

/// Feeds time_of(r) of every record `keep` selects to one profile.
template <typename Records, typename TimeOf, typename Keep>
TimeProfile tally(const Records& records, Bucket bucket,
                  util::UnixSeconds origin, TimeOf time_of, Keep keep) {
  TimeProfile p(bucket, origin);
  for (const auto& r : records)
    if (keep(r)) p.add(time_of(r));
  return p;
}

const auto kSubmit = [](const joblog::JobRecord& j) { return j.submit_time; };
const auto kEnd = [](const joblog::JobRecord& j) { return j.end_time; };
const auto kAt = [](const raslog::RasEvent& e) { return e.timestamp; };
const auto kAll = [](const auto&) { return true; };
const auto kFailed = [](const joblog::JobRecord& j) { return j.failed(); };
const auto kFatal = [](const raslog::RasEvent& e) {
  return e.severity == raslog::Severity::kFatal;
};

}  // namespace

HourlyProfile submissions_by_hour(const joblog::JobLog& log) {
  FAILMINE_TRACE_SPAN("e11.temporal.submissions_by_hour");
  return tally(log.jobs(), Bucket::kHourOfDay, 0, kSubmit, kAll).hourly();
}

WeekdayProfile submissions_by_weekday(const joblog::JobLog& log) {
  FAILMINE_TRACE_SPAN("e11.temporal.submissions_by_weekday");
  return tally(log.jobs(), Bucket::kDayOfWeek, 0, kSubmit, kAll).weekly();
}

HourlyProfile failures_by_hour(const joblog::JobLog& log) {
  FAILMINE_TRACE_SPAN("e11.temporal.failures_by_hour");
  return tally(log.jobs(), Bucket::kHourOfDay, 0, kEnd, kFailed).hourly();
}

HourlyProfile events_by_hour(const raslog::RasLog& log) {
  FAILMINE_TRACE_SPAN("e11.temporal.events_by_hour");
  return tally(log.events(), Bucket::kHourOfDay, 0, kAt, kAll).hourly();
}

std::vector<std::uint64_t> monthly_submissions(const joblog::JobLog& log,
                                               util::UnixSeconds origin) {
  return tally(log.jobs(), Bucket::kMonth, origin, kSubmit, kAll).finalize();
}

std::vector<std::uint64_t> monthly_failures(const joblog::JobLog& log,
                                            util::UnixSeconds origin) {
  return tally(log.jobs(), Bucket::kMonth, origin, kEnd, kFailed).finalize();
}

std::vector<std::uint64_t> monthly_fatal_events(const raslog::RasLog& log,
                                                util::UnixSeconds origin) {
  return tally(log.events(), Bucket::kMonth, origin, kAt, kFatal).finalize();
}

double peak_to_trough(const HourlyProfile& profile) {
  const std::uint64_t mx = *std::max_element(profile.begin(), profile.end());
  const std::uint64_t mn = *std::min_element(profile.begin(), profile.end());
  return static_cast<double>(mx) / static_cast<double>(std::max<std::uint64_t>(1, mn));
}

}  // namespace failmine::analysis
