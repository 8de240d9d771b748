#include "core/event_filter.hpp"

#include <algorithm>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace failmine::core {

using raslog::RasEvent;

bool spatially_similar(const RasEvent& a, const RasEvent& b,
                       const FilterConfig& config) {
  if (config.require_same_message && a.message_id != b.message_id) return false;
  return a.location.near(b.location, config.spatial_level);
}

SimilarityFilter::SimilarityFilter(FilterConfig config)
    : config_(std::move(config)) {
  if (config_.window_seconds < 0)
    throw failmine::DomainError("filter window must be non-negative");
}

bool SimilarityFilter::add(const RasEvent& event) {
  if (event.severity != config_.severity) return false;
  ++result_.input_events;
  std::vector<EventCluster>& clusters = result_.clusters;

  // Events arrive in time order, so a cluster whose latest member fell
  // out of the window can never be joined again.
  std::erase_if(open_, [&](std::size_t idx) {
    return clusters[idx].last_time < event.timestamp - config_.window_seconds;
  });

  // Join the most recently opened similar cluster.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    EventCluster& c = clusters[*it];
    if (spatially_similar(c.representative, event, config_)) {
      ++c.member_count;
      c.last_time = event.timestamp;
      if (!c.job_id && event.job_id) c.job_id = event.job_id;
      return false;
    }
  }

  clusters.push_back(
      {event, 1, event.timestamp, event.timestamp, event.job_id});
  open_.push_back(clusters.size() - 1);
  return true;
}

FilterResult filter_events(const raslog::RasLog& log, const FilterConfig& config) {
  FAILMINE_TRACE_SPAN("e07.filtering");
  SimilarityFilter filter(config);
  for (const RasEvent& e : log.events())
    if (e.severity == config.severity) filter.add(e);
  FilterResult result = std::move(filter).take_result();
  obs::metrics().counter("filter.input_events").add(result.input_events);
  obs::metrics().counter("filter.clusters").add(result.clusters.size());
  return result;
}

PipelineCounts filtering_pipeline(const raslog::RasLog& log,
                                  const FilterConfig& config) {
  // Temporal-only: split the time-sorted stream wherever the gap to the
  // previous event exceeds the window. Spatial-only: distinct components
  // at the effective level, ignoring time entirely.
  PipelineCounts counts;
  util::UnixSeconds last = 0;
  std::set<topology::Location> components;
  for (const RasEvent& e : log.events()) {
    if (e.severity != config.severity) continue;
    if (counts.raw++ == 0 || e.timestamp - last > config.window_seconds)
      ++counts.temporal_only;
    last = e.timestamp;
    components.insert(e.location.ancestor(
        std::min(config.spatial_level, e.location.level())));
  }
  counts.spatial_only = components.size();
  counts.combined = filter_events(log, config).clusters.size();
  return counts;
}

}  // namespace failmine::core
