// failmine/sim/config.hpp
//
// Configuration of the Mira digital twin.
//
// The simulator substitutes for the proprietary ALCF logs (see DESIGN.md).
// Its knobs are calibrated so a scale-1 run reproduces the paper's
// aggregate statistics: 2001 observation days, ~99.2k failed jobs with a
// 99.4 % user-caused share, per-exit-class execution-length families
// (Weibull / Pareto / inverse Gaussian / Erlang-exponential), RAS severity
// mix dominated by INFO, fatal-event spatial locality, and a filtered MTTI
// near 3.5 days. `scale` shrinks the job count and event rates
// proportionally (while keeping the 2001-day span and all per-record
// distributions) so tests and CI-sized runs stay fast.

#pragma once

#include <cstdint>

#include "topology/machine.hpp"
#include "util/time.hpp"

namespace failmine::sim {

struct SimConfig {
  topology::MachineConfig machine = topology::MachineConfig::mira();

  std::uint64_t seed = 20130409;  ///< default: Mira production start date

  /// Observation window. Default matches the paper: 2001 days starting
  /// 2013-04-09 (Mira's production debut).
  util::UnixSeconds observation_start = 1365465600;  // 2013-04-09 00:00:00 UTC
  int observation_days = 2001;

  /// Global scale on job counts and RAS rates; 1.0 = paper-sized trace.
  double scale = 1.0;

  // --- Population -----------------------------------------------------
  int user_count = 900;          ///< active users over the 2001 days
  int project_count = 350;       ///< INCITE/ALCC-style projects
  double user_zipf_exponent = 1.05;  ///< heavy-tailed user activity

  // --- Workload -------------------------------------------------------
  double jobs_per_day = 277.0;   ///< mean accepted arrivals ~250/day (~500k total)
  double diurnal_amplitude = 0.35;   ///< day/night arrival modulation
  double weekend_factor = 0.65;      ///< weekend arrival dampening
  double mean_tasks_per_job = 2.2;   ///< geometric task count >= 1
  double io_coverage = 0.55;         ///< fraction of jobs with Darshan data

  // --- Failure mix ----------------------------------------------------
  /// Base probability that a job fails for user-side reasons. The
  /// effective probability is modulated upward by the user's failure
  /// multiplier, the task count and the job scale (the correlations of
  /// takeaway T-B); 0.151 base yields ~0.198 effective, i.e. ~99.2k user
  /// failures at scale 1.
  double user_failure_probability = 0.151;
  /// Extra failure odds per additional task beyond the first.
  double task_failure_boost = 0.15;
  /// Extra failure odds per doubling of the node count above 512.
  double scale_failure_boost = 0.08;
  /// Hazard of a system-caused interruption per node-second of exposure;
  /// calibrated to ~510 system failures (paper-scale verified) over 2001 days at scale 1
  /// (~0.6 % of failures; with idle episodes, filtered MTTI ~= 3.5 days).
  double system_hazard_per_node_second = 6.8e-11;
  /// Mix of system failure classes (hardware : software : io).
  double system_hardware_weight = 0.55;
  double system_software_weight = 0.25;
  double system_io_weight = 0.20;
  /// Relative mix of user failure classes
  /// (app error : config error : user kill : walltime).
  double user_app_error_weight = 0.62;
  double user_config_error_weight = 0.14;
  double user_kill_weight = 0.13;
  double walltime_weight = 0.11;

  // --- Fault model ------------------------------------------------------
  /// Non-fatal RAS events per day at scale 1 (INFO/WARN chatter).
  double ras_background_per_day = 2400.0;
  /// Fatal episodes on idle hardware per day, on top of the job-exposure
  /// episodes produced by system_hazard_per_node_second. The sum of both
  /// is what determines the filtered MTTI (~3.5 days at scale 1).
  double idle_fatal_episodes_per_day = 0.005;
  /// Mean raw fatal events per episode (the similarity filter collapses
  /// these back to ~1 interruption).
  double fatal_events_per_episode = 14.0;
  /// Episode duration scale in seconds (events cluster within minutes).
  double episode_duration_seconds = 300.0;
  /// Fraction of node boards designated "weak" (locality hot spots).
  double weak_board_fraction = 0.02;
  /// Share of background events emitted by weak boards.
  double weak_board_event_share = 0.45;

  /// Returns this config with job counts/rates multiplied by `s`.
  SimConfig scaled(double s) const;

  util::UnixSeconds observation_end() const {
    return observation_start +
           static_cast<util::UnixSeconds>(observation_days) * util::kSecondsPerDay;
  }

  /// Paper-sized trace (slow: ~500k jobs, ~5M RAS events).
  static SimConfig paper_scale();

  /// 1/10 trace: the default of `failmine_cli experiments` (the tables
  /// in EXPERIMENTS.md).
  static SimConfig bench_scale();

  /// Small trace for unit/integration tests (~2 seconds to generate).
  static SimConfig test_scale();

  /// Validates invariants; throws DomainError on nonsense.
  void validate() const;
};

}  // namespace failmine::sim
