// Unit tests for the failure-prediction subsystem (src/predict): the
// decayed risk signals, the user-propensity history, the checkpoint
// policy's interval bounds and cost model, the precursor miner's
// watermark-deferred scoring window, and the operator's snapshot JSON.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "predict/operator.hpp"
#include "predict/policy.hpp"
#include "predict/precursor.hpp"
#include "predict/risk.hpp"
#include "util/error.hpp"

namespace failmine::predict {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

// ---- risk decay --------------------------------------------------------

TEST(PredictRisk, LocationPressureDecaysExponentially) {
  LocationPressure pressure(100.0);
  pressure.bump(3, 1.0, 1000);
  EXPECT_DOUBLE_EQ(pressure.value_at(3, 1000), 1.0);
  EXPECT_DOUBLE_EQ(pressure.value_at(3, 1100), std::exp(-1.0));
  EXPECT_DOUBLE_EQ(pressure.value_at(7, 1100), 0.0);  // untouched cell
  // A second bump compounds on the decayed value.
  pressure.bump(3, 1.0, 1100);
  EXPECT_DOUBLE_EQ(pressure.value_at(3, 1100), std::exp(-1.0) + 1.0);
}

TEST(PredictRisk, LocationPressureRejectsNonPositiveTau) {
  EXPECT_THROW(LocationPressure(0.0), failmine::DomainError);
  EXPECT_THROW(LocationPressure(-1.0), failmine::DomainError);
}

tasklog::TaskRecord task_for(std::uint64_t job_id, bool failed) {
  tasklog::TaskRecord task;
  task.job_id = job_id;
  task.exit_code = failed ? 1 : 0;
  return task;
}

RiskConfig plain_risk_config() {
  RiskConfig config;
  config.task_decay_tau_seconds = 1000.0;
  config.live_flag_threshold = 1.5;
  return config;
}

TEST(PredictRisk, TaskScoreDecaysBetweenUpdates) {
  JobRiskScorer scorer(plain_risk_config(), kMira);
  scorer.observe_task(task_for(42, true), 1000);
  auto top = scorer.top_live(1, 1000);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].task_score, 1.0);

  // One tau later the score has decayed by e^-1; a fresh failure stacks
  // on top of the decayed value.
  scorer.observe_task(task_for(42, true), 2000);
  top = scorer.top_live(1, 2000);
  EXPECT_DOUBLE_EQ(top[0].task_score, std::exp(-1.0) + 1.0);
  EXPECT_EQ(top[0].tasks_seen, 2u);
  EXPECT_EQ(top[0].tasks_failed, 2u);
}

TEST(PredictRisk, FlagsJobOnThresholdCrossingAndMeasuresLead) {
  JobRiskScorer scorer(plain_risk_config(), kMira);
  UserHistory users(8, 10.0);
  LocationPressure quiet(1.0);

  scorer.observe_task(task_for(7, true), 1000);  // score 1.0 < 1.5
  scorer.observe_task(task_for(7, true), 1001);  // ~2.0 >= 1.5: flagged
  joblog::JobRecord job;
  job.job_id = 7;
  job.exit_code = 1;
  job.exit_class = joblog::ExitClass::kUserAppError;
  const auto a = scorer.score_job_end(job, 1601, quiet, quiet, users);
  EXPECT_TRUE(a.flagged_live);
  EXPECT_EQ(a.flag_lead_seconds, 600);
  EXPECT_GT(a.task_component, 0.0);
  EXPECT_EQ(scorer.live_jobs(), 0u);  // retired at end-of-job

  scorer.record_outcome(a, /*failed=*/true);
  EXPECT_EQ(scorer.true_positives(), 1u);
  EXPECT_DOUBLE_EQ(scorer.precision(), 1.0);
  EXPECT_DOUBLE_EQ(scorer.recall(), 1.0);
}

TEST(PredictRisk, HealthySuccessfulJobScoresNearZero) {
  JobRiskScorer scorer(plain_risk_config(), kMira);
  UserHistory users(8, 10.0);
  LocationPressure quiet(1.0);
  scorer.observe_task(task_for(9, false), 500);
  joblog::JobRecord job;
  job.job_id = 9;
  const auto a = scorer.score_job_end(job, 900, quiet, quiet, users);
  EXPECT_FALSE(a.flagged_live);
  EXPECT_DOUBLE_EQ(a.risk, 0.0);
  scorer.record_outcome(a, /*failed=*/false);
  EXPECT_EQ(scorer.true_negatives(), 1u);
}

TEST(PredictRisk, PostMortemTaskDoesNotResurrectRetiredJob) {
  // Replay orders a job's end record before its same-stamp task records,
  // so failed tasks stamped at the job's final second arrive after the
  // job was scored and retired. They must not re-create a live entry.
  JobRiskScorer scorer(plain_risk_config(), kMira);
  UserHistory users(8, 10.0);
  LocationPressure quiet(1.0);
  scorer.observe_task(task_for(11, false), 500);
  joblog::JobRecord job;
  job.job_id = 11;
  (void)scorer.score_job_end(job, 900, quiet, quiet, users);
  EXPECT_EQ(scorer.live_jobs(), 0u);

  scorer.observe_task(task_for(11, true), 900);  // post-mortem, same stamp
  EXPECT_EQ(scorer.live_jobs(), 0u);
  // A DIFFERENT job's task at that stamp is genuinely live.
  scorer.observe_task(task_for(12, false), 900);
  EXPECT_EQ(scorer.live_jobs(), 1u);
  // And once time moves on, the id may be reused by a fresh job.
  scorer.observe_task(task_for(11, false), 901);
  EXPECT_EQ(scorer.live_jobs(), 2u);
}

TEST(PredictRisk, RiskThresholdFlagsWithoutTaskSignal) {
  // End-of-job environment risk alone (no live task flag) crosses
  // flag_threshold: the job counts as flagged, but contributes no lead
  // time — a threshold crossing at the end record is zero-lead by design.
  RiskConfig config = plain_risk_config();  // flag_threshold 2.0, w_warn 0.5
  JobRiskScorer scorer(config, kMira);
  UserHistory users(8, 10.0);
  LocationPressure warn(1e9);  // effectively no decay within the test
  LocationPressure quiet(1.0);
  warn.bump(0, 10.0, 1000);  // warn_component = 0.5 * 10 = 5 >= 2

  joblog::JobRecord job;
  job.job_id = 21;
  job.nodes_used = 512;  // one midplane, starting at global index 0
  const auto a = scorer.score_job_end(job, 1000, warn, quiet, users);
  EXPECT_FALSE(a.flagged_live);
  EXPECT_TRUE(a.flagged);
  EXPECT_GE(a.risk, config.flag_threshold);

  scorer.record_outcome(a, /*failed=*/true);
  EXPECT_EQ(scorer.true_positives(), 1u);
  EXPECT_TRUE(scorer.flag_lead_sketch().empty());  // no lead recorded
}

TEST(PredictRisk, LiveTableEvictsStalestAtCapacity) {
  RiskConfig config = plain_risk_config();
  config.max_live_jobs = 2;
  JobRiskScorer scorer(config, kMira);
  scorer.observe_task(task_for(1, false), 100);
  scorer.observe_task(task_for(2, false), 200);
  scorer.observe_task(task_for(3, false), 300);  // evicts job 1 (stalest)
  EXPECT_EQ(scorer.live_jobs(), 2u);
  EXPECT_EQ(scorer.evictions(), 1u);
  const auto top = scorer.top_live(10, 300);
  for (const auto& job : top) EXPECT_NE(job.job_id, 1u);
}

TEST(PredictRisk, UserPropensityTracksRelativeFailureRate) {
  UserHistory users(8, 4.0);
  EXPECT_DOUBLE_EQ(users.propensity_ratio(1), 1.0);  // no data: average

  // User 1 fails every job; user 2 never does. Global rate = 1/2.
  for (int i = 0; i < 10; ++i) {
    users.record_job(1, true);
    users.record_job(2, false);
  }
  EXPECT_DOUBLE_EQ(users.propensity_ratio(1), 2.0);  // 1.0 / 0.5
  EXPECT_DOUBLE_EQ(users.propensity_ratio(2), 0.0);
  EXPECT_DOUBLE_EQ(users.propensity_ratio(99), 1.0);  // unmonitored
}

TEST(PredictRisk, UserPropensityIsCapped) {
  UserHistory users(8, 4.0);
  users.record_job(1, true);
  for (int i = 0; i < 99; ++i) users.record_job(2, false);
  // User 1's rate is 1.0 vs global 0.01 — ratio 100, capped to 4.
  EXPECT_DOUBLE_EQ(users.propensity_ratio(1), 4.0);
}

// ---- checkpoint policy -------------------------------------------------

PolicyConfig plain_policy_config() {
  PolicyConfig config;
  config.checkpoint_write_seconds = 600.0;
  config.min_interval_seconds = 600.0;
  config.max_interval_seconds = 48.0 * 3600.0;
  return config;
}

joblog::JobRecord job_running(std::uint32_t nodes, std::int64_t runtime) {
  joblog::JobRecord job;
  job.nodes_used = nodes;
  job.start_time = 0;
  job.end_time = runtime;
  return job;
}

TEST(PredictPolicy, NoHazardMeansNoCheckpoints) {
  CheckpointPolicy policy(plain_policy_config(), kMira);
  const auto d = policy.score_job(job_running(1024, 7200), false, 1.0);
  EXPECT_DOUBLE_EQ(d.job_mtbf_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.static_interval_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.adaptive_interval_seconds, 0.0);
  EXPECT_EQ(policy.cost_static().checkpointed, 0u);
}

TEST(PredictPolicy, IntervalsClampToConfiguredBounds) {
  CheckpointPolicy policy(plain_policy_config(), kMira);
  // Seed a brutal hazard: one kill over a tiny exposure.
  (void)policy.score_job(job_running(1024, 10), true, 1.0);
  ASSERT_GT(policy.hazard_per_node_second(), 0.0);
  const auto harsh = policy.score_job(job_running(49152, 7200), false, 8.0);
  // MTBF is tiny, so raw Daly would be < 600 s; the clamp must hold.
  EXPECT_DOUBLE_EQ(harsh.static_interval_seconds, 600.0);
  EXPECT_DOUBLE_EQ(harsh.adaptive_interval_seconds, 600.0);

  // A nearly-immortal machine: raw Daly exceeds the cap.
  CheckpointPolicy gentle(plain_policy_config(), kMira);
  (void)gentle.score_job(job_running(1, 2'000'000'000LL), true, 1.0);
  const auto calm = gentle.score_job(job_running(1, 7200), false, 1.0);
  EXPECT_DOUBLE_EQ(calm.static_interval_seconds, 48.0 * 3600.0);
}

TEST(PredictPolicy, RiskMultiplierShortensTheAdaptiveInterval) {
  CheckpointPolicy policy(plain_policy_config(), kMira);
  (void)policy.score_job(job_running(1024, 500'000), true, 1.0);
  const auto d = policy.score_job(job_running(1024, 7200), false, 4.0);
  ASSERT_GT(d.static_interval_seconds, 0.0);
  EXPECT_LT(d.adaptive_interval_seconds, d.static_interval_seconds);
  EXPECT_DOUBLE_EQ(d.risk_multiplier, 4.0);

  // The multiplier is clamped to [1, max].
  const auto wild = policy.score_job(job_running(1024, 7200), false, 1e9);
  EXPECT_DOUBLE_EQ(wild.risk_multiplier,
                   plain_policy_config().max_risk_multiplier);
  const auto sub = policy.score_job(job_running(1024, 7200), false, 0.1);
  EXPECT_DOUBLE_EQ(sub.risk_multiplier, 1.0);
}

TEST(PredictPolicy, ColdStartFallsBackToInterruptionGaps) {
  CheckpointPolicy policy(plain_policy_config(), kMira);
  policy.on_interruption(10'000);
  // One interruption is not a rate yet.
  EXPECT_DOUBLE_EQ(policy.score_job(job_running(1024, 3600), false, 1.0)
                       .job_mtbf_seconds,
                   0.0);
  policy.on_interruption(30'000);
  // Mean gap 20k s at machine scale; a 1024-node job sees 1/48 of the
  // exposure on Mira (49152 nodes).
  const auto d = policy.score_job(job_running(1024, 3600), false, 1.0);
  EXPECT_DOUBLE_EQ(d.job_mtbf_seconds,
                   20'000.0 * static_cast<double>(kMira.total_nodes()) /
                       1024.0);
  EXPECT_EQ(policy.interval_sketch().count(), 1u);
}

TEST(PredictPolicy, CostModelChargesWritesAndLostSegment) {
  PolicyConfig config = plain_policy_config();
  CheckpointPolicy policy(config, kMira);
  // Known hazard: 1 kill / (1000 nodes * 1e6 s) = 1e-9 per node-second.
  (void)policy.score_job(job_running(1000, 1'000'000), true, 1.0);

  // The "none" baseline lost that whole first run:
  // 1000 nodes * 16 cores * 1e6 s / 3600.
  const double core_seconds = 1000.0 * 16.0;
  EXPECT_DOUBLE_EQ(policy.cost_none().lost_core_hours,
                   1'000'000.0 * core_seconds / 3600.0);
  EXPECT_DOUBLE_EQ(policy.cost_none().overhead_core_hours, 0.0);

  // A surviving job under a finite interval pays writes only.
  const auto before = policy.cost_static();
  const auto d = policy.score_job(job_running(1000, 100'000), false, 1.0);
  ASSERT_GT(d.static_interval_seconds, 0.0);
  ASSERT_LT(d.static_interval_seconds, 100'000.0);
  const double writes = std::floor(100'000.0 / d.static_interval_seconds);
  EXPECT_DOUBLE_EQ(policy.cost_static().overhead_core_hours -
                       before.overhead_core_hours,
                   writes * 600.0 * core_seconds / 3600.0);
  EXPECT_DOUBLE_EQ(policy.cost_static().lost_core_hours,
                   before.lost_core_hours);
}

TEST(PredictPolicy, RejectsInvalidConfiguration) {
  PolicyConfig bad = plain_policy_config();
  bad.checkpoint_write_seconds = 0.0;
  EXPECT_THROW(CheckpointPolicy(bad, kMira), failmine::DomainError);
  bad = plain_policy_config();
  bad.max_interval_seconds = bad.min_interval_seconds / 2;
  EXPECT_THROW(CheckpointPolicy(bad, kMira), failmine::DomainError);
  bad = plain_policy_config();
  bad.max_risk_multiplier = 0.5;
  EXPECT_THROW(CheckpointPolicy(bad, kMira), failmine::DomainError);
}

// ---- precursor miner ---------------------------------------------------

raslog::RasEvent ras_at(util::UnixSeconds t, raslog::Severity severity,
                        int midplane, const std::string& message_id,
                        raslog::Category category = raslog::Category::kMemory) {
  raslog::RasEvent event;
  event.timestamp = t;
  event.severity = severity;
  event.category = category;
  event.message_id = message_id;
  event.location = topology::Location::rack(0, 0).with_midplane(midplane);
  return event;
}

PredictConfig miner_config() {
  PredictConfig config;
  config.horizon_seconds = 3600;
  config.alert_min_category_warns = 1;  // alert immediately once predictive
  config.alert_min_score = 0.0;
  return config;
}

TEST(PredictMiner, AttributesLatestSimilarWarnAsPrecursor) {
  PrecursorMiner miner(miner_config());
  miner.advance(1000);
  miner.observe_ras(ras_at(1000, raslog::Severity::kWarn, 0, "00010001"),
                    false);
  miner.advance(2000);
  miner.observe_ras(ras_at(2000, raslog::Severity::kWarn, 0, "00010002"),
                    false);
  miner.advance(2500);
  miner.observe_ras(ras_at(2500, raslog::Severity::kFatal, 0, "000f0001"),
                    true);
  miner.finish();

  const auto r = miner.lead_time_result();
  ASSERT_EQ(r.per_interruption.size(), 1u);
  EXPECT_EQ(r.with_precursor, 1u);
  // The LATEST in-window similar WARN wins, exactly like the batch walk.
  ASSERT_TRUE(r.per_interruption[0].lead_seconds.has_value());
  EXPECT_EQ(*r.per_interruption[0].lead_seconds, 500);
  EXPECT_EQ(r.per_interruption[0].warn_message_id, "00010002");
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(PredictMiner, DistantWarnIsNotAPrecursor) {
  PrecursorMiner miner(miner_config());
  miner.advance(1000);
  // Different midplane: fails the spatial similarity.
  miner.observe_ras(ras_at(1000, raslog::Severity::kWarn, 1, "00010001"),
                    false);
  miner.advance(1500);
  miner.observe_ras(ras_at(1500, raslog::Severity::kFatal, 0, "000f0001"),
                    true);
  miner.finish();
  const auto r = miner.lead_time_result();
  EXPECT_EQ(r.with_precursor, 0u);
  EXPECT_EQ(r.without_precursor, 1u);
}

TEST(PredictMiner, EqualTimestampWarnAfterFatalStillCounts) {
  // The satellite-fix regression: the batch window is INCLUSIVE
  // (warn.ts <= cluster.first_time), and under skewed replay a WARN
  // stamped at the fatal's exact second can be routed after it. Scoring
  // at watermark time — cluster resolution deferred until time strictly
  // advances — must still attribute it.
  PrecursorMiner miner(miner_config());
  miner.advance(2000);
  miner.observe_ras(ras_at(2000, raslog::Severity::kFatal, 0, "000f0001"),
                    true);
  EXPECT_EQ(miner.pending_clusters(), 1u);
  miner.advance(2000);  // same-stamp records keep streaming
  miner.observe_ras(ras_at(2000, raslog::Severity::kWarn, 0, "00010009"),
                    false);
  EXPECT_EQ(miner.pending_clusters(), 1u);  // still deferred
  miner.advance(2001);  // watermark passes: now the window is complete
  EXPECT_EQ(miner.pending_clusters(), 0u);

  const auto r = miner.lead_time_result();
  ASSERT_EQ(r.per_interruption.size(), 1u);
  EXPECT_EQ(r.with_precursor, 1u);
  EXPECT_EQ(*r.per_interruption[0].lead_seconds, 0);
  EXPECT_EQ(r.per_interruption[0].warn_message_id, "00010009");
}

TEST(PredictMiner, GradesAlertsAgainstLaterInterruptions) {
  PredictConfig config = miner_config();
  config.lead_horizons = {300, 1800};
  PrecursorMiner miner(config);

  // Make the MEMORY category predictive: one attributed interruption.
  miner.advance(1000);
  miner.observe_ras(ras_at(1000, raslog::Severity::kWarn, 0, "00010001"),
                    false);
  miner.advance(1100);
  miner.observe_ras(ras_at(1100, raslog::Severity::kFatal, 0, "000f0001"),
                    true);
  miner.advance(10'000);  // resolve + expire everything near t=1000
  EXPECT_EQ(miner.clusters_resolved(), 1u);
  EXPECT_EQ(miner.category_scores()[0].hits, 1u);

  // The next MEMORY WARN alerts; a similar fatal 600 s later matches it.
  miner.observe_ras(ras_at(10'000, raslog::Severity::kWarn, 2, "00010001"),
                    false);
  EXPECT_EQ(miner.alerts_emitted(), 1u);
  miner.advance(10'600);
  miner.observe_ras(ras_at(10'600, raslog::Severity::kFatal, 2, "000f0001"),
                    true);
  // And one unmatched alert far away on another midplane.
  miner.advance(20'000);
  miner.observe_ras(ras_at(20'000, raslog::Severity::kWarn, 3, "00010001"),
                    false);
  miner.finish();

  EXPECT_EQ(miner.alerts_graded(), 2u);
  EXPECT_EQ(miner.alerts_matched(), 1u);
  EXPECT_EQ(miner.clusters_alerted(), 1u);
  // Lead 600 s clears the 300 s horizon but not 1800 s.
  EXPECT_EQ(miner.alerts_matched_at()[0], 1u);
  EXPECT_EQ(miner.alerts_matched_at()[1], 0u);
  EXPECT_EQ(miner.clusters_alerted_at()[0], 1u);
  EXPECT_EQ(miner.clusters_alerted_at()[1], 0u);
}

TEST(PredictMiner, RejectsNonPositiveHorizon) {
  PredictConfig config;
  config.horizon_seconds = 0;
  EXPECT_THROW(PrecursorMiner{config}, failmine::DomainError);
}

// ---- operator + snapshot ----------------------------------------------

stream::StreamRecord record_of(raslog::RasEvent event) {
  stream::StreamRecord record;
  record.time = event.timestamp;
  record.payload = std::move(event);
  return record;
}

TEST(PredictOperatorTest, SnapshotJsonIsWellFormedAndCounts) {
  PredictConfig config = miner_config();
  PredictOperator op(config);

  op.observe(record_of(ras_at(1000, raslog::Severity::kWarn, 0, "00010001")),
             false);
  op.observe(record_of(ras_at(1500, raslog::Severity::kFatal, 0, "000f0001")),
             true);

  tasklog::TaskRecord task = task_for(5, true);
  task.end_time = 1600;
  stream::StreamRecord task_record;
  task_record.time = 1600;
  task_record.payload = task;
  op.observe(task_record, false);

  joblog::JobRecord job;
  job.job_id = 5;
  job.user_id = 3;
  job.nodes_used = 512;
  job.start_time = 100;
  job.end_time = 1700;
  job.exit_code = 1;
  job.exit_class = joblog::ExitClass::kUserAppError;
  stream::StreamRecord job_record;
  job_record.time = 1700;
  job_record.payload = job;
  op.observe(job_record, false);

  op.finish();
  const auto snap = op.snapshot();
  EXPECT_EQ(snap.records, 4u);
  EXPECT_EQ(snap.warns, 1u);
  EXPECT_EQ(snap.interruptions, 1u);
  EXPECT_EQ(snap.jobs_scored, 1u);
  EXPECT_TRUE(snap.finished);
  EXPECT_EQ(snap.with_precursor, 1u);

  const std::string json = op.snapshot_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');  // no trailing newline: spliced inline
  EXPECT_NE(json.find("\"lead_time\""), std::string::npos);
  EXPECT_NE(json.find("\"alerting\""), std::string::npos);
  EXPECT_NE(json.find("\"risk\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\""), std::string::npos);
  EXPECT_NE(json.find("\"records\":4"), std::string::npos);
  EXPECT_EQ(op.section_name(), "predict");
}

}  // namespace
}  // namespace failmine::predict
