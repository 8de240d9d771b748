#include "analysis/cooccurrence.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace failmine::analysis {

namespace {

bool severity_at_least(raslog::Severity s, raslog::Severity threshold) {
  return static_cast<int>(s) >= static_cast<int>(threshold);
}

}  // namespace

CooccurrenceResult category_cooccurrence(const raslog::RasLog& log,
                                         const CooccurrenceConfig& config) {
  FAILMINE_TRACE_SPAN("x07.cooccurrence");
  if (config.window_seconds <= 0)
    throw failmine::DomainError("co-occurrence window must be positive");

  // Qualifying events, already time-sorted by the log.
  std::vector<const raslog::RasEvent*> events;
  for (const auto& e : log.events())
    if (severity_at_least(e.severity, config.min_severity))
      events.push_back(&e);

  CooccurrenceResult result;
  result.qualifying_events = events.size();
  if (events.size() < 2) return result;
  result.span_seconds = static_cast<double>(events.back()->timestamp -
                                            events.front()->timestamp);

  for (const auto* e : events)
    ++result.totals[static_cast<std::size_t>(e->category)];

  // Forward scan: for each trigger, count followers inside the window on
  // the same neighbourhood. The window is short relative to the span, so
  // the inner loop touches only a handful of events.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto* trigger = events[i];
    const std::size_t a = static_cast<std::size_t>(trigger->category);
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto* follower = events[j];
      if (follower->timestamp - trigger->timestamp > config.window_seconds)
        break;
      if (!trigger->location.near(follower->location, config.spatial_level))
        continue;
      ++result.follows[a][static_cast<std::size_t>(follower->category)];
    }
  }

  // Lift: observed follows / expected follows under temporal independence
  // (base rate of the follower category falling in a same-length window,
  // ignoring the spatial restriction — so spatial clustering also raises
  // lift, which is exactly the propagation signal we want to surface).
  for (std::size_t a = 0; a < kCategoryCount; ++a) {
    if (result.totals[a] == 0) continue;
    for (std::size_t b = 0; b < kCategoryCount; ++b) {
      if (result.totals[b] == 0 || result.span_seconds <= 0) continue;
      const double rate_b =
          static_cast<double>(result.totals[b]) / result.span_seconds;
      const double expected = static_cast<double>(result.totals[a]) *
                              rate_b *
                              static_cast<double>(config.window_seconds);
      if (expected > 0)
        result.lift[a][b] =
            static_cast<double>(result.follows[a][b]) / expected;
    }
  }
  return result;
}

std::vector<PropagationChannel> top_channels(const CooccurrenceResult& result,
                                             double min_lift,
                                             std::uint64_t min_count) {
  std::vector<PropagationChannel> channels;
  for (std::size_t a = 0; a < kCategoryCount; ++a) {
    for (std::size_t b = 0; b < kCategoryCount; ++b) {
      if (result.lift[a][b] < min_lift) continue;
      if (result.follows[a][b] < min_count) continue;
      channels.push_back(PropagationChannel{
          raslog::kAllCategories[a], raslog::kAllCategories[b],
          result.lift[a][b], result.follows[a][b]});
    }
  }
  std::sort(channels.begin(), channels.end(),
            [](const PropagationChannel& x, const PropagationChannel& y) {
              return x.lift > y.lift;
            });
  return channels;
}

}  // namespace failmine::analysis
