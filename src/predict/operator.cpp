#include "predict/operator.hpp"

#include <algorithm>
#include <iterator>

#include "joblog/exit_status.hpp"
#include "raslog/category.hpp"
#include "stats/summary.hpp"
#include "topology/partition.hpp"

namespace failmine::predict {

namespace {

/// Global midplane index of a located event, or -1 when the location is
/// too shallow to attribute (rack-level events touch two midplanes).
int midplane_of(const topology::Location& location,
                const topology::MachineConfig& machine) {
  if (location.level() < topology::Level::kMidplane) return -1;
  return topology::Partition::global_midplane_index(location, machine);
}

}  // namespace

PredictOperator::PredictOperator(PredictConfig config)
    : config_(std::move(config)),
      miner_(config_),
      scorer_(config_.risk, config_.machine),
      users_(config_.risk.user_capacity, config_.risk.propensity_cap),
      warn_pressure_(config_.risk.warn_pressure_tau_seconds),
      health_(config_.risk.health_tau_seconds),
      policy_(config_.policy, config_.machine) {
  auto& registry = obs::metrics();
  records_counter_ = &registry.counter("predict.records");
  warns_counter_ = &registry.counter("predict.warns");
  interruptions_counter_ = &registry.counter("predict.interruptions");
  alerts_counter_ = &registry.counter("predict.alerts");
  jobs_scored_counter_ = &registry.counter("predict.jobs_scored");
  lead_time_hist_ = &registry.histogram(
      "predict.lead_time_s",
      {60, 300, 900, 1800, 3600, 7200, 14400, 43200, 86400});
  risk_hist_ = &registry.histogram(
      "predict.risk_score", {0.1, 0.25, 0.5, 1, 2, 4, 8, 16, 32});
  flag_lead_hist_ = &registry.histogram(
      "predict.flag_lead_s",
      {60, 300, 900, 1800, 3600, 7200, 14400, 43200, 86400});
}

void PredictOperator::drain_new_leads() {
  const std::vector<double>& leads = miner_.leads();
  for (; leads_observed_ < leads.size(); ++leads_observed_)
    lead_time_hist_->observe(leads[leads_observed_]);
}

void PredictOperator::observe(const stream::StreamRecord& record,
                              bool opened_interruption) {
  ++records_;
  // The per-record counter is the hottest instrument in the operator;
  // batch its (atomic) adds so live readers lag by at most 256 records.
  if (++unflushed_records_ == 256) {
    records_counter_->add(unflushed_records_);
    unflushed_records_ = 0;
  }
  watermark_ = std::max(watermark_, record.time);
  miner_.advance(record.time);

  switch (record.source()) {
    case stream::RecordSource::kRas: {
      const auto& event = std::get<raslog::RasEvent>(record.payload);
      const bool alerted = miner_.observe_ras(event, opened_interruption);
      if (event.severity == raslog::Severity::kWarn) {
        warns_counter_->add();
        const int mp = midplane_of(event.location, config_.machine);
        if (mp >= 0) warn_pressure_.bump(mp, 1.0, event.timestamp);
      }
      if (opened_interruption) {
        interruptions_counter_->add();
        policy_.on_interruption(event.timestamp);
        const int mp = midplane_of(event.location, config_.machine);
        if (mp >= 0) health_.bump(mp, 1.0, event.timestamp);
      }
      if (alerted) alerts_counter_->add();
      break;
    }
    case stream::RecordSource::kTask: {
      scorer_.observe_task(std::get<tasklog::TaskRecord>(record.payload),
                           record.time);
      break;
    }
    case stream::RecordSource::kJob: {
      const auto& job = std::get<joblog::JobRecord>(record.payload);
      // Job records stream at end time and sort ahead of the same-stamp
      // fatal burst that kills them, so everything read here is strictly
      // pre-outcome.
      RiskAssessment assessment = scorer_.score_job_end(
          job, record.time, warn_pressure_, health_, users_);
      risk_hist_->observe(assessment.risk);

      const double multiplier =
          1.0 + assessment.risk / config_.risk.flag_threshold;
      const bool system_failed = joblog::is_system_caused(job.exit_class);
      policy_.score_job(job, system_failed, multiplier);

      // Ground truth and history only after every decision is made. The
      // target is a system-caused end (what checkpointing mitigates),
      // not mere job failure — user aborts are the user's bug.
      if (assessment.flagged_live && system_failed)
        flag_lead_hist_->observe(
            static_cast<double>(assessment.flag_lead_seconds));
      scorer_.record_outcome(assessment, system_failed);
      users_.record_job(job.user_id, system_failed);
      jobs_scored_counter_->add();
      break;
    }
    case stream::RecordSource::kIo:
      break;  // no I/O-derived signal yet
  }
  drain_new_leads();
}

void PredictOperator::finish() {
  miner_.finish();
  drain_new_leads();
  if (unflushed_records_ > 0) {
    records_counter_->add(unflushed_records_);
    unflushed_records_ = 0;
  }
  finished_ = true;
}

PredictSnapshot PredictOperator::snapshot() const {
  PredictSnapshot snap;
  snap.records = records_;
  snap.warns = miner_.warns_seen();
  snap.interruptions =
      miner_.clusters_resolved() + miner_.pending_clusters();
  snap.alerts = miner_.alerts_emitted();
  snap.finished = finished_;

  const core::LeadTimeResult leads = miner_.lead_time_result();
  snap.with_precursor = leads.with_precursor;
  snap.without_precursor = leads.without_precursor;
  snap.coverage = leads.coverage;
  snap.median_lead_seconds = leads.median_lead_seconds;
  snap.mean_lead_seconds = leads.mean_lead_seconds;
  if (!miner_.leads().empty()) {
    snap.lead_p10_seconds = stats::quantile(miner_.leads(), 0.10);
    snap.lead_p90_seconds = stats::quantile(miner_.leads(), 0.90);
  }
  snap.pending_clusters = miner_.pending_clusters();
  snap.pending_alerts = miner_.pending_alerts();

  snap.alerts_graded = miner_.alerts_graded();
  snap.alerts_matched = miner_.alerts_matched();
  snap.alert_precision =
      snap.alerts_graded > 0
          ? static_cast<double>(snap.alerts_matched) /
                static_cast<double>(snap.alerts_graded)
          : 0.0;
  snap.clusters_alerted = miner_.clusters_alerted();
  const std::uint64_t resolved = miner_.clusters_resolved();
  snap.alert_recall =
      resolved > 0 ? static_cast<double>(snap.clusters_alerted) /
                         static_cast<double>(resolved)
                   : 0.0;
  for (std::size_t i = 0; i < config_.lead_horizons.size(); ++i) {
    HorizonStat h;
    h.horizon_seconds = config_.lead_horizons[i];
    h.clusters_predicted = miner_.clusters_alerted_at()[i];
    h.recall = resolved > 0 ? static_cast<double>(h.clusters_predicted) /
                                  static_cast<double>(resolved)
                            : 0.0;
    h.alerts_matched = miner_.alerts_matched_at()[i];
    h.precision = snap.alerts_graded > 0
                      ? static_cast<double>(h.alerts_matched) /
                            static_cast<double>(snap.alerts_graded)
                      : 0.0;
    snap.horizons.push_back(h);
  }
  for (std::size_t i = 0; i < std::size(raslog::kAllCategories); ++i) {
    const CategoryScore& score = miner_.category_scores()[i];
    CategoryStat c;
    c.category = raslog::category_name(raslog::kAllCategories[i]);
    c.warns = score.warns;
    c.hits = score.hits;
    c.score = score.score();
    c.alerting = score.hits > 0 &&
                 score.warns >= config_.alert_min_category_warns &&
                 score.score() >= config_.alert_min_score;
    snap.categories.push_back(std::move(c));
  }

  snap.jobs_scored = scorer_.jobs_scored();
  snap.risk_tp = scorer_.true_positives();
  snap.risk_fp = scorer_.false_positives();
  snap.risk_fn = scorer_.false_negatives();
  snap.risk_tn = scorer_.true_negatives();
  snap.risk_precision = scorer_.precision();
  snap.risk_recall = scorer_.recall();
  if (!scorer_.flag_lead_sketch().empty()) {
    snap.flag_lead_p50_seconds = scorer_.flag_lead_sketch().quantile(0.50);
    snap.flag_lead_p90_seconds = scorer_.flag_lead_sketch().quantile(0.90);
  }
  snap.mean_risk_failed = scorer_.mean_risk_failed();
  snap.mean_risk_ok = scorer_.mean_risk_ok();
  snap.live_jobs = scorer_.live_jobs();
  snap.live_evictions = scorer_.evictions();
  for (const LiveJob& job : scorer_.top_live(10, watermark_)) {
    TopJobStat stat;
    stat.job_id = job.job_id;
    stat.task_score = job.task_score;
    stat.tasks_seen = job.tasks_seen;
    stat.tasks_failed = job.tasks_failed;
    stat.flagged = job.flagged_at != 0;
    stat.first_seen = job.first_seen;
    snap.top_at_risk.push_back(stat);
  }

  snap.hazard_per_node_second = policy_.hazard_per_node_second();
  snap.system_kills = policy_.system_kills();
  snap.node_seconds = policy_.node_seconds();
  snap.interval_samples = policy_.interval_sketch().count();
  if (!policy_.interval_sketch().empty()) {
    snap.interval_p50_days =
        policy_.interval_sketch().quantile(0.50) / 86400.0;
    snap.interval_p90_days =
        policy_.interval_sketch().quantile(0.90) / 86400.0;
  }
  const auto policy_row = [](const char* name, const PolicyCost& cost) {
    PolicyRow row;
    row.name = name;
    row.jobs = cost.jobs;
    row.checkpointed = cost.checkpointed;
    row.overhead_core_hours = cost.overhead_core_hours;
    row.lost_core_hours = cost.lost_core_hours;
    row.waste_core_hours = cost.waste_core_hours();
    row.mean_interval_seconds = cost.mean_interval_seconds();
    return row;
  };
  snap.policies.push_back(policy_row("none", policy_.cost_none()));
  snap.policies.push_back(policy_row("static", policy_.cost_static()));
  snap.policies.push_back(policy_row("adaptive", policy_.cost_adaptive()));
  snap.saved_vs_static_core_hours = policy_.saved_vs_static_core_hours();
  snap.saved_vs_none_core_hours = policy_.saved_vs_none_core_hours();

  return snap;
}

}  // namespace failmine::predict
