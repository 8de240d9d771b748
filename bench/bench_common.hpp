// Shared infrastructure for the experiment harness.
//
// Every bench binary regenerates one table/figure of the paper (see
// DESIGN.md's per-experiment index): it first prints the table the paper
// reports, then runs google-benchmark timings of the underlying analysis
// so the cost of each pipeline stage is tracked too.
//
// The dataset is a deterministic simulated Mira trace at 1/10 paper
// scale (override with FAILMINE_BENCH_SCALE=<float> in the environment;
// scale 1.0 regenerates the paper-sized trace, ~500k jobs / ~5M events).

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/cooccurrence.hpp"
#include "columnar/builder.hpp"
#include "columnar/engine.hpp"
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
/// Backend switch for the experiment benches: --columnar (stripped from
/// argv by ObsSession before google-benchmark sees it) or
/// FAILMINE_COLUMNAR=1 in the environment runs the shared analyses on
/// the SoA tables instead of the row containers.
inline bool& columnar_backend() {
  static bool enabled = [] {
    const char* env = std::getenv("FAILMINE_COLUMNAR");
    return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

inline const char* backend_name() {
  return columnar_backend() ? "columnar" : "row";
}

class ObsSession {
 public:
  ObsSession(int* argc, char** argv) : inner_(argc, argv) {
    // Strip --columnar here (google-benchmark rejects unknown flags).
    for (int i = 1; i < *argc;) {
      if (std::strcmp(argv[i], "--columnar") == 0) {
        columnar_backend() = true;
        for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
        --*argc;
      } else {
        ++i;
      }
    }
  }

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

/// Ingest options for benches that load datasets from disk. Defaults to
/// the parallel mmap engine at hardware concurrency; override the worker
/// count with FAILMINE_INGEST_THREADS=<N> (1 = serial reader).
inline ingest::LoadOptions ingest_options() {
  ingest::LoadOptions options;
  if (const char* env = std::getenv("FAILMINE_INGEST_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && n >= 0)
      options.threads = static_cast<unsigned>(n);
    else
      obs::logger().warn("bench.ingest_threads_rejected",
                         {obs::Field("value", env)});
  }
  return options;
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

/// The SoA twin of dataset(): the simulated logs rebuilt as sealed
/// columnar tables (single-chunk builders — determinism is trivial).
inline const columnar::ColumnarDataset& columnar_dataset() {
  static const columnar::ColumnarDataset tables = [] {
    FAILMINE_TRACE_SPAN("bench.columnar_build");
    const auto& d = dataset();
    columnar::ColumnarDataset out;
    {
      columnar::JobTableBuilder b;
      b.reserve(d.job_log.size());
      for (const auto& j : d.job_log.jobs()) b.add(j);
      std::vector<columnar::JobTableBuilder> chunks;
      chunks.push_back(std::move(b));
      out.jobs = columnar::JobTableBuilder::merge(std::move(chunks));
    }
    {
      columnar::TaskTableBuilder b;
      b.reserve(d.task_log.size());
      for (const auto& t : d.task_log.tasks()) b.add(t);
      std::vector<columnar::TaskTableBuilder> chunks;
      chunks.push_back(std::move(b));
      out.tasks = columnar::TaskTableBuilder::merge(std::move(chunks));
    }
    {
      columnar::RasTableBuilder b(dataset_config().machine);
      b.reserve(d.ras_log.size());
      for (const auto& e : d.ras_log.events()) b.add(e);
      std::vector<columnar::RasTableBuilder> chunks;
      chunks.push_back(std::move(b));
      out.ras = columnar::RasTableBuilder::merge(std::move(chunks));
    }
    {
      columnar::IoTableBuilder b;
      b.reserve(d.io_log.size());
      for (const auto& r : d.io_log.records()) b.add(r);
      std::vector<columnar::IoTableBuilder> chunks;
      chunks.push_back(std::move(b));
      out.io = columnar::IoTableBuilder::merge(std::move(chunks));
    }
    return out;
  }();
  return tables;
}

/// The representation-agnostic query surface for the E-benches: the
/// backend picked by --columnar / FAILMINE_COLUMNAR, identical results
/// either way (columnar parity contract).
inline const columnar::QueryEngine& query_engine() {
  static const columnar::QueryEngine engine = [] {
    if (columnar_backend())
      return columnar::QueryEngine(columnar_dataset(),
                                   dataset_config().machine);
    return columnar::QueryEngine(dataset().job_log, dataset().task_log,
                                 dataset().ras_log, dataset().io_log,
                                 dataset_config().machine);
  }();
  return engine;
}

// ---- shared analysis fragments ----------------------------------------
// The X02 / X07 / X08 tables and the P01 online-prediction scoreboard
// all measure the same quantities; these helpers keep the inputs (and
// their caching) in one place so the offline references and the
// streaming results stay comparable. The canonical horizons / window /
// checkpoint-cost constants live in predict/config.hpp.

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

/// Offline WARN->FATAL lead times at one horizon (the X02 rows and the
/// parity reference of bench_p01 / the stream parity test).
inline core::LeadTimeResult lead_times_at(std::int64_t horizon_seconds) {
  core::LeadTimeConfig config;
  config.horizon_seconds = horizon_seconds;
  return core::warning_lead_times(analyzer().ras(), interruption_clusters(),
                                  config);
}

/// The co-occurrence configuration X07 reports with (window from the
/// canonical constant, everything else default).
inline analysis::CooccurrenceConfig cooccurrence_config() {
  analysis::CooccurrenceConfig config;
  config.window_seconds = predict::kCooccurrenceWindowSeconds;
  return config;
}

/// The X08 checkpoint-advisor table at the canonical write cost and
/// reference runtime (also the static baseline of P01's policy
/// scoreboard).
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

/// Rescales a trace-level count to its paper-scale equivalent.
inline double to_paper_scale(double measured) {
  return measured / dataset_config().scale;
}

}  // namespace failmine::bench
