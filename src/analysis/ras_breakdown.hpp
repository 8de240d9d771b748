// failmine/analysis/ras_breakdown.hpp
//
// RAS event counts by severity, component and category (experiment
// E06, takeaway T-D: the raw stream is INFO-dominated with a thin FATAL
// tail concentrated in a few components). Both backends compute it
// with analysis::RasCounts (accumulators.hpp).

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "raslog/category.hpp"
#include "raslog/component.hpp"
#include "raslog/event.hpp"
#include "raslog/severity.hpp"

namespace failmine::analysis {

/// Counts indexed INFO, WARN, FATAL.
using SeverityCounts = std::array<std::uint64_t, 3>;

struct RasBreakdown {
  std::uint64_t total_events = 0;
  SeverityCounts by_severity{};
  /// Per-component / per-category severity counts; only keys that occur
  /// are present, in enum order.
  std::map<raslog::Component, SeverityCounts> by_component;
  std::map<raslog::Category, SeverityCounts> by_category;
};

/// One pass over the events.
RasBreakdown ras_breakdown(const raslog::RasLog& log);

}  // namespace failmine::analysis
