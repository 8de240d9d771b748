// perfbench/driver/answers.hpp
//
// The answers the workloads produce and the digests they are checked
// with. Batch workloads answer the 12 columnar::QueryEngine analyses
// (batch_row also the takeaway report); stream workloads answer the
// final StreamSnapshot, compared on the fields batch/stream parity
// guarantees (tests/test_stream_parity.cpp). Every digest folds doubles
// by bit pattern, so equal digests mean bit-identical answers.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ras_breakdown.hpp"
#include "analysis/temporal.hpp"
#include "analysis/user_stats.hpp"
#include "core/joint_analyzer.hpp"
#include "core/mtti.hpp"
#include "core/report.hpp"
#include "stream/snapshot.hpp"

namespace perfbench {

/// The 12 QueryEngine analyses of one batch repetition.
struct QueryAnswers {
  failmine::core::DatasetSummary summary;                ///< E01
  failmine::core::ExitBreakdown exits;                   ///< E02
  std::vector<failmine::analysis::GroupStats> users;     ///< E03
  std::vector<failmine::analysis::GroupStats> projects;  ///< E03
  failmine::analysis::RasBreakdown ras;                  ///< E06
  failmine::analysis::HourlyProfile submissions_by_hour{};  ///< E11 ...
  failmine::analysis::WeekdayProfile submissions_by_weekday{};
  failmine::analysis::HourlyProfile failures_by_hour{};
  failmine::analysis::HourlyProfile events_by_hour{};
  std::vector<std::uint64_t> monthly_submissions;
  std::vector<std::uint64_t> monthly_failures;
  std::vector<std::uint64_t> monthly_fatal_events;
};

/// One digest per answer, named, in a fixed order.
using NamedDigests = std::vector<std::pair<std::string, std::uint64_t>>;

NamedDigests digest_queries(const QueryAnswers& answers);

/// One digest per takeaway: its id and measured value.
NamedDigests digest_takeaways(
    const std::vector<failmine::core::Takeaway>& takeaways);

/// How many answers of `want` are missing from `got` or digest otherwise.
std::size_t mismatches(const NamedDigests& want, const NamedDigests& got);

/// The stream answer's parity fields: exit-class counts, severity totals,
/// fatal inputs, interruptions, MTTI and the observation window.
struct StreamFacts {
  failmine::core::ExitBreakdown exits;
  std::array<std::uint64_t, 3> severity_totals{};
  std::uint64_t fatal_input_events = 0;
  std::uint64_t interruptions = 0;
  failmine::core::MttiResult mtti;
  failmine::util::UnixSeconds window_begin = 0;
  failmine::util::UnixSeconds window_end = 0;
};

StreamFacts facts_of(const failmine::stream::StreamSnapshot& snapshot);

/// Exit-class core-hours are left out: the shards sum them in another
/// order than the batch pass, so they agree only within rounding.
std::uint64_t digest_stream(const StreamFacts& facts);

}  // namespace perfbench
