#include "core/mtti.hpp"

#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace failmine::core {

MttiResult mtti_from_times(std::vector<util::UnixSeconds> times,
                           util::UnixSeconds begin, util::UnixSeconds end) {
  if (end <= begin) throw failmine::DomainError("empty observation window");
  std::erase_if(times,
                [&](util::UnixSeconds t) { return t < begin || t >= end; });
  MttiResult r;
  r.span_days = static_cast<double>(end - begin) /
                static_cast<double>(util::kSecondsPerDay);
  r.interruptions = times.size();
  if (times.empty()) {
    r.mtti_days = r.span_days;  // censored: no interruption observed
    return r;
  }
  r.mtti_days = r.span_days / static_cast<double>(times.size());
  for (std::size_t i = 1; i < times.size(); ++i)
    r.intervals_days.push_back(static_cast<double>(times[i] - times[i - 1]) /
                               static_cast<double>(util::kSecondsPerDay));
  if (!r.intervals_days.empty()) {
    r.mean_interval_days = stats::mean(r.intervals_days);
    r.median_interval_days = stats::median(r.intervals_days);
  }
  return r;
}

MttiResult compute_mtti(const std::vector<EventCluster>& clusters,
                        util::UnixSeconds begin, util::UnixSeconds end) {
  FAILMINE_TRACE_SPAN("mtti.compute");
  std::vector<util::UnixSeconds> times;
  times.reserve(clusters.size());
  for (const auto& c : clusters) times.push_back(c.first_time);
  return mtti_from_times(std::move(times), begin, end);
}

FilteredMtti filtered_mtti(const raslog::RasLog& log, const FilterConfig& config,
                           util::UnixSeconds begin, util::UnixSeconds end) {
  FilteredMtti out;
  out.filter = filter_events(log, config);
  out.mtti = compute_mtti(out.filter.clusters, begin, end);
  return out;
}

MttiResult raw_mtti(const raslog::RasLog& log, raslog::Severity severity,
                    util::UnixSeconds begin, util::UnixSeconds end) {
  std::vector<util::UnixSeconds> times;
  for (const auto& e : log.events())
    if (e.severity == severity) times.push_back(e.timestamp);
  return mtti_from_times(std::move(times), begin, end);
}

}  // namespace failmine::core
