#include "analysis/ras_breakdown.hpp"

#include "analysis/accumulators.hpp"
#include "obs/trace.hpp"

namespace failmine::analysis {

RasBreakdown ras_breakdown(const raslog::RasLog& log) {
  FAILMINE_TRACE_SPAN("e06.ras_breakdown");
  RasCounts counts;
  for (const auto& e : log.events())
    counts.add(static_cast<std::uint8_t>(e.severity),
               static_cast<std::uint8_t>(e.component),
               static_cast<std::uint8_t>(e.category));
  return counts.finalize();
}

}  // namespace failmine::analysis
