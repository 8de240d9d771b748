#include "predict/precursor.hpp"

#include <algorithm>

namespace failmine::predict {

namespace {

std::size_t category_index(raslog::Category category) {
  return static_cast<std::size_t>(category);
}

}  // namespace

PrecursorMiner::PrecursorMiner(const PredictConfig& config)
    : horizon_(config.horizon_seconds),
      spatial_level_(config.spatial_level),
      alert_min_score_(config.alert_min_score),
      alert_min_warns_(config.alert_min_category_warns),
      lead_horizons_(config.lead_horizons),
      search_({config.horizon_seconds, config.spatial_level}) {
  clusters_alerted_at_.assign(lead_horizons_.size(), 0);
  alerts_matched_at_.assign(lead_horizons_.size(), 0);
}

void PrecursorMiner::resolve(const PendingCluster& cluster) {
  // The X02 search itself: the latest similar WARN in
  // [first_time - horizon, first_time].
  const core::PrecursorSearch::Warn* best =
      search_.resolve(cluster.first_time, cluster.location);
  if (best != nullptr) ++categories_[category_index(best->category)].hits;

  // Grade-side bookkeeping: which pending alerts predicted this
  // interruption, and with how much lead? (Every alert whose window
  // covers this cluster is still pending — alerts outlive the clusters
  // they can match, see advance().)
  const util::UnixSeconds window_start = cluster.first_time - horizon_;
  std::int64_t best_alert_lead = -1;
  for (PendingAlert& alert : alerts_) {
    if (alert.time > cluster.first_time) break;  // queue is time-ordered
    if (alert.time < window_start) continue;
    if (!alert.location.near(cluster.location, spatial_level_)) continue;
    const std::int64_t lead = cluster.first_time - alert.time;
    alert.best_lead = std::max(alert.best_lead, lead);
    best_alert_lead = std::max(best_alert_lead, lead);
  }
  if (best_alert_lead >= 0) {
    ++clusters_alerted_;
    for (std::size_t i = 0; i < lead_horizons_.size(); ++i)
      if (best_alert_lead >= lead_horizons_[i]) ++clusters_alerted_at_[i];
  }
}

void PrecursorMiner::grade(const PendingAlert& alert) {
  ++alerts_graded_;
  if (alert.best_lead < 0) return;
  ++alerts_matched_;
  for (std::size_t i = 0; i < lead_horizons_.size(); ++i)
    if (alert.best_lead >= lead_horizons_[i]) ++alerts_matched_at_[i];
}

util::UnixSeconds PrecursorMiner::earliest_deadline() const {
  util::UnixSeconds wake = std::numeric_limits<util::UnixSeconds>::max();
  if (!pending_.empty()) wake = pending_.front().first_time;
  if (!alerts_.empty())
    wake = std::min(wake, alerts_.front().time + horizon_);
  return wake;
}

void PrecursorMiner::prune_warns(util::UnixSeconds t) {
  // The search only needs WARNs back one horizon behind the earliest
  // unresolved interruption (or behind `t` when idle).
  search_.forget_before(
      (pending_.empty() ? t : pending_.front().first_time) - horizon_);
}

void PrecursorMiner::advance(util::UnixSeconds t) {
  // Fast path: nothing pending is due yet. WARN pruning rides on the
  // WARN-arrival path instead, so the whole call is one compare for the
  // vast majority of records.
  if (t <= wake_at_) return;
  // 1. Interruptions first seen strictly before `t` have their inclusive
  //    WARN window complete (any warn stamped at first_time has already
  //    streamed past in watermark order).
  while (!pending_.empty() && pending_.front().first_time < t) {
    resolve(pending_.front());
    pending_.pop_front();
  }
  // 2. Alerts whose whole match horizon lies strictly behind `t` are
  //    final: every interruption they could still match (first_time <=
  //    alert.time + horizon < t) was resolved in step 1.
  while (!alerts_.empty() && alerts_.front().time + horizon_ < t) {
    grade(alerts_.front());
    alerts_.pop_front();
  }
  prune_warns(t);
  wake_at_ = earliest_deadline();
}

bool PrecursorMiner::observe_ras(const raslog::RasEvent& event,
                                 bool opened_interruption) {
  bool alerted = false;
  if (event.severity == raslog::Severity::kWarn) {
    CategoryScore& cat = categories_[category_index(event.category)];
    ++cat.warns;
    ++warns_seen_;
    // A category only alerts once it has been predictive at least once;
    // a zero-hit score of 0.0 must not clear an alert_min_score of 0.
    if (cat.hits > 0 && cat.warns >= alert_min_warns_ &&
        cat.score() >= alert_min_score_) {
      alerts_.push_back({event.timestamp, event.location});
      ++alerts_emitted_;
      alerted = true;
      wake_at_ = std::min(wake_at_, event.timestamp + horizon_);
    }
    search_.add_warn(event);
    prune_warns(event.timestamp);
  }

  // An event that opened an interruption is its representative (earliest
  // member).
  if (opened_interruption) {
    pending_.push_back({event.timestamp, event.location});
    wake_at_ = std::min(wake_at_, event.timestamp);
  }
  return alerted;
}

void PrecursorMiner::finish() {
  while (!pending_.empty()) {
    resolve(pending_.front());
    pending_.pop_front();
  }
  while (!alerts_.empty()) {
    grade(alerts_.front());
    alerts_.pop_front();
  }
  wake_at_ = std::numeric_limits<util::UnixSeconds>::max();
}

}  // namespace failmine::predict
