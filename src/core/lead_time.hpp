// failmine/core/lead_time.hpp
//
// WARN -> FATAL lead-time analysis.
//
// Real RAS streams show precursor warnings (correctable-error thresholds,
// link retrains, voltage deviations) in the minutes before a fatal fault;
// the paper's discussion of error propagation motivates asking how much
// warning time an online monitor would have had. For every filtered
// interruption we look back a bounded horizon for the nearest WARN on the
// same hardware neighbourhood and report the lead-time distribution and
// the fraction of interruptions that had any precursor at all.
// PrecursorSearch is that search, written once: warning_lead_times
// drives it over a log, predict::PrecursorMiner over the stream.

#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/event_filter.hpp"
#include "raslog/event.hpp"

namespace failmine::core {

struct LeadTimeConfig {
  /// How far back to search for a precursor.
  std::int64_t horizon_seconds = 7200;
  /// Spatial closeness required between WARN and interruption (same as
  /// the similarity filter's radius semantics).
  topology::Level spatial_level = topology::Level::kMidplane;
};

/// Precursor finding for one interruption.
struct Precursor {
  util::UnixSeconds interruption_time = 0;
  std::optional<std::int64_t> lead_seconds;  ///< nullopt: no precursor found
  std::string warn_message_id;               ///< empty when none
};

/// Aggregate results.
struct LeadTimeResult {
  std::vector<Precursor> per_interruption;  ///< one per cluster, time order
  std::uint64_t with_precursor = 0;
  std::uint64_t without_precursor = 0;
  double coverage = 0.0;            ///< with / total
  double median_lead_seconds = 0.0; ///< over covered interruptions
  double mean_lead_seconds = 0.0;
};

/// The precursor search as an operator: WARNs enter in time order, and
/// each interruption is resolved against the WARNs held.
class PrecursorSearch {
 public:
  /// A WARN without its free text.
  struct Warn {
    util::UnixSeconds time = 0;
    topology::Location location = topology::Location::rack(0, 0);
    raslog::Category category = raslog::Category::kSoftware;
    std::string message_id;
  };

  /// Throws DomainError unless the horizon is positive.
  explicit PrecursorSearch(const LeadTimeConfig& config);

  void add_warn(const raslog::RasEvent& warn);

  /// Records the Precursor of the interruption first seen at
  /// `first_time` on `location`: the latest WARN held in
  /// [first_time - horizon, first_time] near `location`. The walk runs
  /// back from the newest WARN and skips any stamped after `first_time`,
  /// so of equal stamps the WARN added last wins. Returns that WARN
  /// (valid until forget_before drops it), or nullptr when there is none.
  const Warn* resolve(util::UnixSeconds first_time,
                      const topology::Location& location);

  /// Drops the WARNs stamped before `t`.
  void forget_before(util::UnixSeconds t);

  /// Lead times found so far, in resolve order.
  const std::vector<double>& leads() const { return leads_; }
  std::uint64_t resolved() const { return per_interruption_.size(); }

  /// Every interruption resolved so far, with coverage, median and mean.
  LeadTimeResult result() const;

 private:
  LeadTimeConfig config_;
  std::deque<Warn> warns_;  ///< time order
  std::vector<Precursor> per_interruption_;
  std::vector<double> leads_;
};

/// Searches the WARN stream of `log` for precursors of each filtered
/// interruption in `clusters`, which come in first-time order, as
/// filter_events returns them (DomainError otherwise).
LeadTimeResult warning_lead_times(const raslog::RasLog& log,
                                  const std::vector<EventCluster>& clusters,
                                  const LeadTimeConfig& config = {});

}  // namespace failmine::core
