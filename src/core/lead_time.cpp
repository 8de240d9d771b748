#include "core/lead_time.hpp"

#include <algorithm>

#include "stats/summary.hpp"
#include "util/error.hpp"

namespace failmine::core {

PrecursorSearch::PrecursorSearch(const LeadTimeConfig& config)
    : config_(config) {
  if (config_.horizon_seconds <= 0)
    throw failmine::DomainError("lead-time horizon must be positive");
}

void PrecursorSearch::add_warn(const raslog::RasEvent& warn) {
  warns_.push_back(
      {warn.timestamp, warn.location, warn.category, warn.message_id});
}

const PrecursorSearch::Warn* PrecursorSearch::resolve(
    util::UnixSeconds first_time, const topology::Location& location) {
  const util::UnixSeconds window_start = first_time - config_.horizon_seconds;
  const Warn* best = nullptr;
  for (auto it = warns_.rbegin(); it != warns_.rend(); ++it) {
    if (it->time > first_time) continue;
    if (it->time < window_start) break;  // WARNs are held in time order
    if (it->location.near(location, config_.spatial_level)) {
      best = &*it;
      break;
    }
  }

  Precursor p;
  p.interruption_time = first_time;
  if (best != nullptr) {
    p.lead_seconds = first_time - best->time;
    p.warn_message_id = best->message_id;
    leads_.push_back(static_cast<double>(*p.lead_seconds));
  }
  per_interruption_.push_back(std::move(p));
  return best;
}

void PrecursorSearch::forget_before(util::UnixSeconds t) {
  while (!warns_.empty() && warns_.front().time < t) warns_.pop_front();
}

LeadTimeResult PrecursorSearch::result() const {
  LeadTimeResult result;
  result.per_interruption = per_interruption_;
  result.with_precursor = leads_.size();
  result.without_precursor = per_interruption_.size() - leads_.size();
  if (!per_interruption_.empty())
    result.coverage = static_cast<double>(result.with_precursor) /
                      static_cast<double>(per_interruption_.size());
  if (!leads_.empty()) {
    result.median_lead_seconds = stats::median(leads_);
    result.mean_lead_seconds = stats::mean(leads_);
  }
  return result;
}

LeadTimeResult warning_lead_times(const raslog::RasLog& log,
                                  const std::vector<EventCluster>& clusters,
                                  const LeadTimeConfig& config) {
  PrecursorSearch search(config);
  if (!std::is_sorted(clusters.begin(), clusters.end(),
                      [](const EventCluster& a, const EventCluster& b) {
                        return a.first_time < b.first_time;
                      }))
    throw failmine::DomainError("clusters must come in first-time order");

  // Collect the WARN stream once (already time-sorted inside the log),
  // then merge it forward up to each interruption, holding only the
  // WARNs inside its horizon.
  std::vector<const raslog::RasEvent*> warns;
  for (const auto& e : log.events())
    if (e.severity == raslog::Severity::kWarn) warns.push_back(&e);

  auto next = warns.begin();
  for (const auto& cluster : clusters) {
    const util::UnixSeconds window_start =
        cluster.first_time - config.horizon_seconds;
    search.forget_before(window_start);
    for (; next != warns.end() && (*next)->timestamp <= cluster.first_time;
         ++next)
      if ((*next)->timestamp >= window_start) search.add_warn(**next);
    search.resolve(cluster.first_time, cluster.representative.location);
  }
  return search.result();
}

}  // namespace failmine::core
