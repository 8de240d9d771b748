// failmine/predict/precursor.hpp
//
// Online WARN -> FATAL precursor mining over the watermark-ordered RAS
// stream — the streaming adaptation of core::warning_lead_times (X02)
// and the category co-occurrence study (X07).
//
// The miner keeps three sliding structures:
//  * the WARNs of a core::PrecursorSearch (X02's search) covering the
//    precursor horizon behind the earliest still-unresolved interruption;
//  * a pending-interruption queue: the pipeline's filter says which event
//    opened an interruption, but the precursor search for one first seen
//    at time T is DEFERRED until the watermark passes T — a WARN stamped
//    at exactly T may still arrive after the fatal under skewed replay,
//    and the batch search window is inclusive (warn.timestamp <= T). This
//    is the watermark-time (not arrival-time) scoring window that makes the
//    streamed lead-time distribution bitwise-equal to X02's batch result
//    even under seeded skew shuffle;
//  * a pending-alert queue: a WARN whose category has proven predictive
//    (chosen-precursor hits / category WARNs >= alert_min_score) raises
//    an alert, graded when the horizon ahead of it has fully streamed
//    past: matched by a similar interruption (true positive, with the
//    achieved lead) or not (false positive). Precision and recall are
//    reported at the configured fixed lead-time horizons.
//
// Single-threaded by contract: driven by the router via PredictOperator
// (see stream/router_operator.hpp).

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <vector>

#include "core/lead_time.hpp"
#include "predict/config.hpp"
#include "raslog/event.hpp"
#include "topology/location.hpp"

namespace failmine::predict {

/// Live per-category precursor statistics.
struct CategoryScore {
  std::uint64_t warns = 0;  ///< WARNs of this category seen so far
  std::uint64_t hits = 0;   ///< times it supplied a cluster's precursor

  double score() const {
    return warns == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(warns);
  }
};

class PrecursorMiner {
 public:
  explicit PrecursorMiner(const PredictConfig& config);

  /// Advances the miner's clock to watermark time `t`: resolves every
  /// pending interruption strictly older than `t` (its inclusive WARN
  /// window is then complete), then grades alerts whose match horizon
  /// has fully passed, then prunes the held WARNs. Call before observing
  /// any record stamped `t`.
  void advance(util::UnixSeconds t);

  /// Feeds one RAS event (any severity) in watermark order, with the
  /// pipeline filter's verdict on it. Returns true when it raised an alert.
  bool observe_ras(const raslog::RasEvent& event, bool opened_interruption);

  /// End of stream: resolves and grades everything still pending.
  void finish();

  // -- results ----------------------------------------------------------

  /// The streamed lead-time distribution in core::warning_lead_times's
  /// result shape (identical on the same stream — the parity anchor).
  core::LeadTimeResult lead_time_result() const { return search_.result(); }

  const std::vector<double>& leads() const { return search_.leads(); }
  std::uint64_t clusters_resolved() const { return search_.resolved(); }
  std::uint64_t warns_seen() const { return warns_seen_; }

  const std::array<CategoryScore, std::size(raslog::kAllCategories)>&
  category_scores() const {
    return categories_;
  }

  /// Recall side: interruptions covered by an alert at lead >= L, per
  /// configured horizon (parallel to config.lead_horizons).
  std::uint64_t clusters_alerted() const { return clusters_alerted_; }
  const std::vector<std::uint64_t>& clusters_alerted_at() const {
    return clusters_alerted_at_;
  }

  /// Precision side: graded alerts and how many matched an interruption
  /// (overall and at lead >= L per horizon).
  std::uint64_t alerts_emitted() const { return alerts_emitted_; }
  std::uint64_t alerts_graded() const { return alerts_graded_; }
  std::uint64_t alerts_matched() const { return alerts_matched_; }
  const std::vector<std::uint64_t>& alerts_matched_at() const {
    return alerts_matched_at_;
  }

  std::size_t pending_clusters() const { return pending_.size(); }
  std::size_t pending_alerts() const { return alerts_.size(); }

 private:
  struct PendingCluster {
    util::UnixSeconds first_time;
    topology::Location location;  ///< the representative's
  };

  struct PendingAlert {
    util::UnixSeconds time;
    topology::Location location;
    std::int64_t best_lead = -1;  ///< best matched lead so far, -1 = none
  };

  void resolve(const PendingCluster& cluster);
  void grade(const PendingAlert& alert);
  util::UnixSeconds earliest_deadline() const;
  void prune_warns(util::UnixSeconds t);

  std::int64_t horizon_;
  topology::Level spatial_level_;
  double alert_min_score_;
  std::uint64_t alert_min_warns_;
  std::vector<std::int64_t> lead_horizons_;

  core::PrecursorSearch search_;
  std::deque<PendingCluster> pending_;
  std::deque<PendingAlert> alerts_;

  /// Earliest watermark at which advance() has real work (the minimum
  /// pending-cluster / alert-grading deadline). advance(t) with
  /// t <= wake_at_ is a single compare — the common case on a stream
  /// where most records are not RAS events.
  util::UnixSeconds wake_at_ = std::numeric_limits<util::UnixSeconds>::max();

  std::array<CategoryScore, std::size(raslog::kAllCategories)> categories_{};
  std::uint64_t warns_seen_ = 0;

  std::uint64_t clusters_alerted_ = 0;
  std::vector<std::uint64_t> clusters_alerted_at_;
  std::uint64_t alerts_emitted_ = 0;
  std::uint64_t alerts_graded_ = 0;
  std::uint64_t alerts_matched_ = 0;
  std::vector<std::uint64_t> alerts_matched_at_;
};

}  // namespace failmine::predict
