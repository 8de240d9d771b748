// failmine/predict/config.hpp
//
// Configuration for the online failure-prediction subsystem, plus the
// canonical analysis constants shared between the offline experiment
// benches (X02 lead time, X07 co-occurrence, X08 checkpoint advisor) and
// the streaming predictor. Keeping the horizons / checkpoint-cost
// assumptions in exactly one place is what makes the offline tables and
// the online policy scoreboard comparable apples-to-apples (P01 vs X08).
// The interruptions come from the pipeline's filter (StreamConfig::filter).

#pragma once

#include <cstdint>
#include <vector>

#include "topology/location.hpp"
#include "topology/machine.hpp"

namespace failmine::predict {

// ---- canonical shared constants ---------------------------------------
// (consumed by the X02 / X07 / X08 tables of `failmine_cli experiments`,
// by the P01 bench and by the PredictConfig defaults below)

/// The lead-time horizons the X02 table sweeps.
inline constexpr std::int64_t kLeadTimeHorizonsSeconds[] = {900, 3600, 7200,
                                                            86400};

/// The headline precursor-search horizon (X02's message table and the
/// online miner's default window).
inline constexpr std::int64_t kDefaultPrecursorHorizonSeconds = 7200;

/// Co-occurrence window between category events (X07's lift matrix).
inline constexpr std::int64_t kCooccurrenceWindowSeconds = 600;

/// Assumed checkpoint write cost (full memory dump through the I/O
/// subsystem), X08's delta.
inline constexpr double kCheckpointWriteSeconds = 600.0;

/// Reference runtime for the bare-run comparison in X08 and for the
/// adaptive policy's interval cap.
inline constexpr double kReferenceRuntimeSeconds = 48.0 * 3600.0;

// ---- subsystem configuration ------------------------------------------

/// Per-job risk scoring (see risk.hpp).
struct RiskConfig {
  /// Live task-failure score: weight added per failed task and the
  /// exponential decay constant applied between updates.
  double task_fail_weight = 1.0;
  double task_decay_tau_seconds = 3600.0;

  /// A live job whose decayed task score reaches this is flagged (the
  /// online prediction; lead = job end - first crossing).
  double live_flag_threshold = 1.0;

  /// Decay constants of the per-midplane pressure maps: recent WARNs
  /// (precursor pressure) and recent fatal interruptions (location
  /// health).
  double warn_pressure_tau_seconds =
      static_cast<double>(kDefaultPrecursorHorizonSeconds);
  double health_tau_seconds = 6.0 * 3600.0;

  /// Component weights of the end-of-job risk score
  ///   risk = w_task * task + w_warn * warn_pressure
  ///        + w_user * max(0, propensity - 1) + w_health * health.
  double w_task = 2.0;
  double w_warn = 0.5;
  double w_user = 1.0;
  double w_health = 1.0;

  /// End-of-job risk at or above this counts as "high risk" (also the
  /// normalization scale of the policy's risk multiplier).
  double flag_threshold = 2.0;

  /// Cap on the user-propensity ratio (user failure rate over the global
  /// rate) so one pathological user cannot dominate the score.
  double propensity_cap = 10.0;

  /// Monitored-key budget of the per-user space-saving sketches.
  std::size_t user_capacity = 512;

  /// Live-job table bound; the stalest entry is evicted beyond this.
  std::size_t max_live_jobs = 1 << 16;
};

/// Adaptive checkpoint policy (see policy.hpp).
struct PolicyConfig {
  double checkpoint_write_seconds = kCheckpointWriteSeconds;

  /// Recommended intervals are clamped to [min, max]: never checkpoint
  /// more often than a write takes, never less often than the reference
  /// runtime (beyond which the recommendation is "no checkpoints").
  double min_interval_seconds = kCheckpointWriteSeconds;
  double max_interval_seconds = kReferenceRuntimeSeconds;

  /// Cap of the risk multiplier applied to a job's effective MTBF.
  double max_risk_multiplier = 8.0;

  /// Rank-error bound of the interruption-interval quantile sketch.
  double quantile_epsilon = 0.005;
};

/// Top-level configuration of the PredictOperator.
struct PredictConfig {
  topology::MachineConfig machine = topology::MachineConfig::mira();

  /// Precursor search: how far back from an interruption to look for a
  /// WARN, and how close in space it must be. Defaults match
  /// core::LeadTimeConfig so the streamed distribution equals X02.
  std::int64_t horizon_seconds = kDefaultPrecursorHorizonSeconds;
  topology::Level spatial_level = topology::Level::kMidplane;

  /// Fixed lead-time horizons at which alert precision/recall are
  /// reported (the P01 table).
  std::vector<std::int64_t> lead_horizons = {900, 3600};

  /// A WARN raises an alert when its category has been predictive at
  /// least once (hits > 0) and its live precursor score (chosen-precursor
  /// hits / category WARNs) reaches `alert_min_score` after at least
  /// `alert_min_category_warns` observations. WARNs vastly outnumber the
  /// interruptions they precede, so realistic scores sit well below 1e-2;
  /// the default admits every proven-predictive category and leaves the
  /// threshold as a selectivity knob.
  double alert_min_score = 0.0;
  std::uint64_t alert_min_category_warns = 25;

  RiskConfig risk;
  PolicyConfig policy;
};

}  // namespace failmine::predict
