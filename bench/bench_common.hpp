// Shared infrastructure for the bench binaries (S01–S07, P01, C01).
//
// Each binary prints its gate table, then runs google-benchmark timings.
// The paper's tables are not benches: `failmine_cli experiments` prints
// them, and EXPERIMENTS.md holds its output (see examples/experiments.hpp).
//
// The dataset is a deterministic simulated Mira trace at 1/10 paper
// scale (override with FAILMINE_BENCH_SCALE=<float> in the environment;
// scale 1.0 regenerates the paper-sized trace, ~500k jobs / ~5M events).

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/joint_analyzer.hpp"
#include "core/lead_time.hpp"
#include "obs/log.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "predict/config.hpp"
#include "sim/simulator.hpp"

namespace failmine::bench {

/// Per-binary observability bootstrap for the bench mains. Construct it
/// first thing in main(), BEFORE benchmark::Initialize, so the shared
/// obs flags (--log-level, --metrics-out, --trace-out, --profile-out)
/// are stripped from argv before google-benchmark rejects them. On
/// destruction it prints the per-phase wall-time breakdown of everything
/// traced during the run (dataset build, each analysis span, benchmark
/// iterations) and writes the JSON exports if requested. Setting
/// FAILMINE_PROFILE=out.folded[:HZ] in the environment (handled by the
/// wrapped obs::ObsSession) CPU-profiles the whole bench run and writes
/// flamegraph-ready folded stacks next to the table output.
class ObsSession {
 public:
  ObsSession(int* argc, char** argv) : inner_(argc, argv) {}

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    std::printf("\nphase timings (wall time per traced span):\n%s",
                obs::tracer().summary_text().c_str());
    // inner_ flushes --metrics-out / --trace-out afterwards.
  }

 private:
  obs::ObsSession inner_;
};

/// Parses `text` as the bench scale. Returns the fallback — warning via
/// the obs logger — on anything that is not a fully-consumed, finite,
/// positive number ("0.5x", "", "abc", "-1", "inf"); std::atof would
/// silently turn those into garbage scales or 0.
inline double parse_bench_scale(const char* text, double fallback) {
  char* end = nullptr;
  const double s = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(s) || s <= 0) {
    obs::logger().warn("bench.scale_rejected",
                       {obs::Field("value", text),
                        obs::Field("fallback", fallback)});
    return fallback;
  }
  return s;
}

inline double bench_scale() {
  constexpr double kDefaultScale = 0.1;
  if (const char* env = std::getenv("FAILMINE_BENCH_SCALE"))
    return parse_bench_scale(env, kDefaultScale);
  return kDefaultScale;
}

inline const sim::SimConfig& dataset_config() {
  static const sim::SimConfig config = [] {
    sim::SimConfig c;
    c.scale = bench_scale();
    return c;
  }();
  return config;
}

inline const sim::SimResult& dataset() {
  static const sim::SimResult result = [] {
    FAILMINE_TRACE_SPAN("bench.dataset_build");
    return sim::simulate(dataset_config());
  }();
  return result;
}

inline const core::JointAnalyzer& analyzer() {
  static const core::JointAnalyzer instance = [] {
    FAILMINE_TRACE_SPAN("bench.analyzer_build");
    return core::JointAnalyzer(dataset().job_log, dataset().task_log,
                               dataset().ras_log, dataset().io_log,
                               dataset_config().machine);
  }();
  return instance;
}

// ---- shared analysis fragments ----------------------------------------
// P01 scores the online predictor against the offline X02 lead times and
// X08 checkpoint advice; these helpers build (and cache) those references
// on the bench trace. The canonical horizons / window / checkpoint-cost
// constants live in predict/config.hpp, which the X02/X07/X08 tables of
// `failmine_cli experiments` read too.

/// The default-filtered interruption clusters of the bench trace
/// (deduplicated FATALs — the denominator of X02 and P01).
inline const std::vector<core::EventCluster>& interruption_clusters() {
  static const std::vector<core::EventCluster> clusters = [] {
    FAILMINE_TRACE_SPAN("bench.interruption_filter");
    return analyzer().interruption_analysis(core::FilterConfig{})
        .filter.clusters;
  }();
  return clusters;
}

/// Offline WARN->FATAL lead times at one horizon (P01's parity
/// reference).
inline core::LeadTimeResult lead_times_at(std::int64_t horizon_seconds) {
  core::LeadTimeConfig config;
  config.horizon_seconds = horizon_seconds;
  return core::warning_lead_times(analyzer().ras(), interruption_clusters(),
                                  config);
}

/// The X08 checkpoint advice at the canonical write cost and reference
/// runtime (the static baseline of P01's policy scoreboard).
inline const std::vector<core::CheckpointAdvice>& checkpoint_advice() {
  static const std::vector<core::CheckpointAdvice> advice = [] {
    FAILMINE_TRACE_SPAN("bench.checkpoint_advice");
    return core::recommend_checkpoints(analyzer().jobs(),
                                       predict::kCheckpointWriteSeconds,
                                       predict::kReferenceRuntimeSeconds);
  }();
  return advice;
}

inline void print_header(const char* experiment, const char* title,
                         const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", experiment, title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("trace: scale=%.3g seed=%llu (%d days)\n", dataset_config().scale,
              static_cast<unsigned long long>(dataset_config().seed),
              dataset_config().observation_days);
  std::printf("================================================================\n");
}

}  // namespace failmine::bench
