// failmine/core/event_filter.hpp
//
// Similarity-based RAS event filtering (the paper's method behind
// takeaway T-E).
//
// Raw RAS logs over-report: one physical fault emits a burst of FATAL
// records across neighbouring hardware within seconds-to-minutes. Naively
// counting raw FATALs therefore wildly underestimates MTTI. The paper
// filters events by *similarity* — two events are considered the same
// interruption if they are close in time AND close in space (and
// optionally share a message id) — and computes MTTI over the filtered
// stream (~3.5 days on Mira).
//
// We implement this as a single-pass greedy clustering over the
// time-sorted event stream: an event joins the most recent open cluster
// it is similar to, otherwise it opens a new cluster. SimilarityFilter
// is that clustering, written once: filter_events drives it over a log,
// the stream router over the stream. The per-stage reduction
// (temporal-only, spatial-only, both) is exposed so E07 can report the
// pipeline shrinkage and E14 can sweep the parameters.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "raslog/event.hpp"
#include "topology/location.hpp"

namespace failmine::core {

/// Similarity definition used by the filter.
struct FilterConfig {
  /// Events within this many seconds of a cluster's *latest* member can
  /// join it (sliding window, as in the paper's filtering).
  std::int64_t window_seconds = 900;

  /// Spatial radius: events must share an ancestor at (or deeper than)
  /// this level. kRack = coarse (whole rack counts as "same place");
  /// kComputeCard = strict.
  topology::Level spatial_level = topology::Level::kMidplane;

  /// If true, only events with identical message ids are merged.
  bool require_same_message = false;

  /// Severity the filter operates on (FATAL for interruption analysis).
  raslog::Severity severity = raslog::Severity::kFatal;
};

/// One filtered cluster = one deduplicated interruption.
struct EventCluster {
  raslog::RasEvent representative;        ///< earliest member
  std::uint64_t member_count = 0;
  util::UnixSeconds first_time = 0;
  util::UnixSeconds last_time = 0;
  std::optional<std::uint64_t> job_id;    ///< any member's job association
};

/// Result of a filtering run.
struct FilterResult {
  std::vector<EventCluster> clusters;     ///< time order of first member
  std::uint64_t input_events = 0;         ///< events of the selected severity

  double reduction_factor() const {
    return clusters.empty() ? 0.0
                            : static_cast<double>(input_events) /
                                  static_cast<double>(clusters.size());
  }
};

/// The similarity filter as an operator, fed one event at a time in time
/// order (a log's, or a stream's watermark order).
class SimilarityFilter {
 public:
  /// Throws DomainError on a negative window.
  explicit SimilarityFilter(FilterConfig config);

  /// Feeds one event; events of other severities are ignored. Returns
  /// true when the event opens a cluster, with itself as representative.
  bool add(const raslog::RasEvent& event);

  const std::vector<EventCluster>& clusters() const {
    return result_.clusters;
  }
  std::uint64_t input_events() const { return result_.input_events; }

  /// Moves the clusters and the input count out; the filter is spent.
  FilterResult take_result() && { return std::move(result_); }

 private:
  FilterConfig config_;
  FilterResult result_;
  /// Clusters whose latest member is within the window, opening order.
  std::vector<std::size_t> open_;
};

/// Runs the similarity filter over `log`.
FilterResult filter_events(const raslog::RasLog& log, const FilterConfig& config);

/// True if the two events are "similar" under `config` (time distance is
/// the caller's responsibility; this checks space + message only).
bool spatially_similar(const raslog::RasEvent& a, const raslog::RasEvent& b,
                       const FilterConfig& config);

/// Pipeline view for E07: stage-by-stage cluster counts with the same
/// window, loosening one criterion at a time.
struct PipelineCounts {
  std::uint64_t raw = 0;             ///< events of the selected severity
  std::uint64_t temporal_only = 0;   ///< clusters if only time is used
  std::uint64_t spatial_only = 0;    ///< clusters if only space is used
  std::uint64_t combined = 0;        ///< clusters under the full filter
};

PipelineCounts filtering_pipeline(const raslog::RasLog& log,
                                  const FilterConfig& config);

}  // namespace failmine::core
