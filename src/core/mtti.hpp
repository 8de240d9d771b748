// failmine/core/mtti.hpp
//
// Mean time to interruption / between failures, computed over filtered
// interruptions (takeaway T-E: MTTI ~= 3.5 days on Mira after
// similarity-based filtering).

#pragma once

#include <vector>

#include "core/event_filter.hpp"
#include "util/time.hpp"

namespace failmine::core {

/// MTTI/MTBF summary over an observation window.
struct MttiResult {
  std::uint64_t interruptions = 0;
  double span_days = 0.0;
  double mtti_days = 0.0;           ///< span / interruptions
  double mean_interval_days = 0.0;  ///< mean of consecutive gaps
  double median_interval_days = 0.0;
  std::vector<double> intervals_days;  ///< consecutive interruption gaps
};

/// The one MTTI formula, over the ascending first-occurrence times of
/// interruptions; times outside [begin, end) are dropped. A window with
/// no interruption is censored: its MTTI is the whole span. Throws
/// DomainError when end <= begin.
MttiResult mtti_from_times(std::vector<util::UnixSeconds> times,
                           util::UnixSeconds begin, util::UnixSeconds end);

/// Computes MTTI from filtered clusters over [begin, end).
MttiResult compute_mtti(const std::vector<EventCluster>& clusters,
                        util::UnixSeconds begin, util::UnixSeconds end);

/// Convenience: filter then compute, returning both.
struct FilteredMtti {
  FilterResult filter;
  MttiResult mtti;
};

FilteredMtti filtered_mtti(const raslog::RasLog& log, const FilterConfig& config,
                           util::UnixSeconds begin, util::UnixSeconds end);

/// Unfiltered baseline: MTTI over raw events of the filter's severity
/// (what a naive count would claim).
MttiResult raw_mtti(const raslog::RasLog& log, raslog::Severity severity,
                    util::UnixSeconds begin, util::UnixSeconds end);

}  // namespace failmine::core
