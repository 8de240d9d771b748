// failmine_cli — command-line driver for the toolkit.
//
// Subcommands:
//   simulate --out DIR [--scale S] [--seed N] [--days D]
//       generate a four-log dataset as CSV files
//   summary  --data DIR [--columnar]
//       dataset totals (E01); --columnar loads the SoA tables and feeds
//       the E01 accumulator from columns instead of rows (identical
//       output: both backends run the same accumulator)
//   report   --data DIR [--scale S]
//       machine-checkable takeaway report against the paper's claims
//   mtti     --data DIR [--window SEC] [--radius rack|midplane|board|card]
//       similarity filtering + MTTI
//   fit      --data DIR [--min-sample N]
//       per-exit-class execution-length distribution study (E05)
//   experiments [--scale S]
//       simulates the documented trace (scale 0.1 unless --scale) and
//       prints the paper's tables E01–E14 and X01–X08 as the marked
//       blocks EXPERIMENTS.md holds (see examples/experiments.hpp)
//   stream   --data DIR [--shards N] [--lateness SEC] [--shuffle SEC]
//            [--seed N] [--policy block|drop] [--queue N] [--interval N]
//            [--serve PORT] [--serve-linger SEC] [--trace-sample N]
//            [--alert-rules PATH] [--predict] [--tsdb[=SECONDS]]
//       replay the dataset through the streaming pipeline in event-time
//       order (optionally with bounded shuffle); prints periodic windowed
//       stats to stderr and the final StreamSnapshot JSON to stdout.
//       --serve exposes live telemetry over HTTP for the duration of the
//       replay (port 0 picks an ephemeral port, announced on stderr):
//       GET /metrics (Prometheus text; ?format=openmetrics adds trace-id
//       exemplars), /snapshot (StreamSnapshot JSON), /healthz (200/503
//       JSON with the firing-alert count), /trace?id=HEX (stage timeline
//       of a sampled record), /alerts (SLO rule states),
//       /flightrecorder (recent log/span ring as JSONL) and /profile
//       (timed CPU capture, ?seconds=N&hz=H&fmt=folded|json).
//       --serve-linger keeps the server up N seconds after the replay
//       finishes so a scraper can collect the final state.
//       --trace-sample N samples 1-in-N records for causal tracing
//       (default 100; 0 disables) and prints the end-of-run
//       critical-path report to stderr. --alert-rules PATH replaces the
//       built-in alert rules (see obs/alerts.hpp for the grammar); the
//       engine evaluates every 500 ms while the replay runs.
//       --predict attaches the online failure-prediction subsystem
//       (src/predict): precursor mining, per-job risk scoring and the
//       adaptive checkpoint policy run inline on the router thread. The
//       final snapshot gains a "predict" section, a summary goes to
//       stderr, and with --serve GET /predict serves the live state.
//       --tsdb[=SECONDS] enables the embedded time-series store
//       (obs/tsdb): a background thread scrapes every metric into
//       compressed in-memory history at the given interval (default 1 s,
//       floor 0.05 s). The alert engine switches to true windowed
//       evaluation against the stored history, --serve gains GET /query
//       (range/instant expressions, see obs/tsdb_query.hpp for the
//       grammar) and GET /series, the final snapshot gains a "tsdb"
//       stats section, and an ASCII sparkline trend report (throughput,
//       queue depth, failure rate, router p99) prints to stderr at exit.
//       --queue N is the pipeline's budget of records between push and
//       apply (default 16384): a pushed batch counts whole until its
//       last row is applied, except while a record the watermark holds
//       back pins it.
//   stream   --fleet N [--scale S] [--seed N] [--shards N] [--lateness SEC]
//            [--shuffle SEC] [--policy block|drop] [--queue N]
//            [--serve PORT] [--serve-linger SEC] [--trace-sample N]
//            [--alert-rules PATH] [--tsdb[=SECONDS]]
//       runs N digital twins in one process, each replaying its own
//       in-process simulation (seed+i, diverging sizes, an elevated
//       failure mix on the last twin). It loads no dataset and refuses
//       --data, --ingest-threads, --predict and --interval. Every pipeline
//       instrument carries a twin="t<i>" label, /query understands
//       `sum by (twin) (rate(stream.records_in{twin=~"*"}[1m]))`,
//       --serve gains GET /fleet (per-twin rollup + merged cross-fleet
//       heavy hitters), and the twin-selector alert rules fire
//       independently per twin. The fleet rollup JSON goes to stdout.
//
// Global loading options (any subcommand reading --data DIR):
//   --ingest-threads N   worker threads for the parallel mmap CSV ingest
//                        engine (0 = hardware concurrency, the default;
//                        1 = the serial line-oriented reader)
//
// Global observability options (any subcommand):
//   --log-level debug|info|warn|error|off   stderr log threshold
//   --metrics-out PATH   write the metrics registry as JSON on exit
//   --trace-out PATH     write a chrome-trace JSON (chrome://tracing,
//                        https://ui.perfetto.dev) on exit
//   --flight-recorder PATH   dump the in-memory flight recorder ring as
//                        JSONL to PATH if the process crashes
//   --profile-out PATH[:HZ]  sample the whole run with the in-process
//                        CPU profiler (default 99 Hz) and write folded
//                        stacks to PATH (flamegraph.pl / speedscope);
//                        the per-span CPU table prints to stderr
//
// Numeric flags must parse whole (`--window 12abc` is an error, not 12),
// doubles must be finite, and flags stored as unsigned values reject
// negatives and out-of-range values. A flag the subcommand does not read
// (`simulate --sede 5`) is an error before the command runs. Each such
// error exits 2.
//
// Exit status: 0 on success (and, for `report`, only if all claims pass).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "columnar/engine.hpp"
#include "columnar/load.hpp"
#include "core/report.hpp"
#include "experiments.hpp"
#include "obs/alerts.hpp"
#include "predict/operator.hpp"
#include "obs/causal.hpp"
#include "obs/serve.hpp"
#include "obs/session.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "stream/fleet.hpp"
#include "stream/pipeline.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace failmine;

/// Minimal --key value / --key=value argument parser. A few flags are
/// boolean and take no value (listed in kBooleanFlags); everything else
/// consumes the next argv entry unless it was spelled --key=value. A flag
/// outside `known` (the flags the subcommand reads) is a ParseError
/// naming it, so a misspelt flag fails instead of being ignored.
class ArgMap {
 public:
  ArgMap(int argc, char** argv, int first,
         const std::vector<std::string>& known) {
    static const std::set<std::string> kBooleanFlags = {"columnar", "predict",
                                                        "tsdb"};
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0)
        throw failmine::ParseError("expected --option, got '" + key + "'");
      const std::string name = key.substr(2);
      // --key=value spelling lets a boolean-ish flag carry an optional
      // value (--tsdb vs --tsdb=0.25).
      const auto eq = name.find('=');
      const std::string flag = name.substr(0, eq);
      if (std::find(known.begin(), known.end(), flag) == known.end()) {
        std::string expected;
        for (const auto& k : known)
          expected += (expected.empty() ? "--" : ", --") + k;
        throw failmine::ParseError("unknown flag --" + flag + " (expected " +
                                   expected + ")");
      }
      if (eq != std::string::npos) {
        values_[flag] = name.substr(eq + 1);
        continue;
      }
      if (kBooleanFlags.contains(name)) {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc)
        throw failmine::ParseError("missing value for " + key);
      values_[name] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The whole value as a finite double.
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      const double value = util::parse_double(it->second);
      if (std::isfinite(value)) return value;
    } catch (const failmine::ParseError&) {
    }
    reject(key, "a finite number");
  }

  /// The whole value as a signed integer.
  long long get_int(const std::string& key, long long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    try {
      return util::parse_int(it->second);
    } catch (const failmine::ParseError&) {
      reject(key, "an integer");
    }
  }

  /// get_int for a flag stored as an unsigned value: a negative value or
  /// one above `max` is an error, not a wrap or a clamp.
  std::uint64_t get_unsigned(const std::string& key, std::uint64_t fallback,
                             std::uint64_t max = INT64_MAX) const {
    if (!has(key)) return fallback;
    const long long value = get_int(key, 0);
    if (value < 0) reject(key, "a non-negative integer");
    if (static_cast<std::uint64_t>(value) > max)
      reject(key, "an integer <= " + std::to_string(max));
    return static_cast<std::uint64_t>(value);
  }

  bool has(const std::string& key) const { return values_.contains(key); }

 private:
  [[noreturn]] void reject(const std::string& key,
                           const std::string& expected) const {
    throw failmine::ParseError("--" + key + " expects " + expected +
                               ", got '" + values_.at(key) + "'");
  }

  std::map<std::string, std::string> values_;
};

/// Exit status for bad invocations (no/unknown command, argument errors).
constexpr int kUsageExitCode = 2;

void print_usage() {
  std::fprintf(stderr,
               "usage: failmine_cli "
               "<simulate|summary|report|mtti|fit|stream|experiments> "
               "[options]\n"
               "  simulate --out DIR [--scale S] [--seed N] [--days D]\n"
               "  summary  --data DIR [--columnar]\n"
               "  report   --data DIR [--scale S] [--format text|json]\n"
               "  mtti     --data DIR [--window SEC] [--radius LEVEL]\n"
               "  fit      --data DIR [--min-sample N]\n"
               "  experiments [--scale S]\n"
               "  stream   --data DIR [--shards N] [--lateness SEC] "
               "[--shuffle SEC]\n"
               "           [--seed N] [--policy block|drop] [--queue N] "
               "[--interval N]\n"
               "           [--serve PORT] [--serve-linger SEC] "
               "[--trace-sample N]\n"
               "           [--alert-rules PATH] [--predict] "
               "[--tsdb[=SECONDS]]\n"
               "  stream   --fleet N [--scale S] [--seed N] [--shards N] "
               "[--lateness SEC]\n"
               "           [--shuffle SEC] [--policy block|drop] [--queue N] "
               "[--serve PORT]\n"
               "           [--serve-linger SEC] [--trace-sample N] "
               "[--alert-rules PATH]\n"
               "           [--tsdb[=SECONDS]]\n"
               "           N in-process twins with twin=\"t<i>\"-labeled "
               "metrics\n"
               "           (simulates per-twin data; takes no --data)\n"
               "global: [--ingest-threads N] [--log-level LEVEL] "
               "[--metrics-out PATH]\n"
               "        [--trace-out PATH] [--flight-recorder PATH] "
               "[--profile-out PATH[:HZ]]\n");
}

ingest::LoadOptions load_options(const ArgMap& args) {
  ingest::LoadOptions options;
  options.threads = static_cast<unsigned>(
      args.get_unsigned("ingest-threads", 0, UINT32_MAX));
  return options;
}

std::string data_dir(const ArgMap& args) {
  const std::string dir = args.get("data", "");
  if (dir.empty()) throw failmine::ParseError("--data DIR is required");
  return dir;
}

sim::SimResult load(const ArgMap& args) {
  return sim::load_dataset(data_dir(args), topology::MachineConfig::mira(),
                           load_options(args));
}

core::JointAnalyzer make_analyzer(const sim::SimResult& data) {
  return core::JointAnalyzer(data.job_log, data.task_log, data.ras_log,
                             data.io_log, topology::MachineConfig::mira());
}

int cmd_simulate(const ArgMap& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw failmine::ParseError("--out DIR is required");
  sim::SimConfig config;
  config.scale = args.get_double("scale", 0.05);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20130409));
  config.observation_days =
      static_cast<int>(args.get_int("days", config.observation_days));
  std::printf("simulating %d days at scale %.3g (seed %llu)...\n",
              config.observation_days, config.scale,
              static_cast<unsigned long long>(config.seed));
  const auto trace = sim::simulate(config);
  std::filesystem::create_directories(out);
  sim::write_dataset(trace, out);
  std::printf("wrote %zu jobs, %zu tasks, %zu RAS events, %zu I/O records "
              "to %s/\n",
              trace.job_log.size(), trace.task_log.size(),
              trace.ras_log.size(), trace.io_log.size(), out.c_str());
  return 0;
}

int cmd_summary(const ArgMap& args) {
  // --columnar parses straight into the SoA tables and answers E01
  // through the columnar QueryEngine; the printed lines are identical
  // to the row path, which feeds the same E01 accumulator from rows.
  core::DatasetSummary s;
  if (args.has("columnar")) {
    const auto machine = topology::MachineConfig::mira();
    const auto dataset =
        columnar::load_dataset(data_dir(args), machine, load_options(args));
    s = columnar::QueryEngine(dataset, machine).dataset_summary();
  } else {
    const auto data = load(args);
    s = make_analyzer(data).dataset_summary();
  }
  std::printf("span            %.1f days\n", s.span_days);
  std::printf("jobs            %llu\n", static_cast<unsigned long long>(s.jobs));
  std::printf("tasks           %llu\n", static_cast<unsigned long long>(s.tasks));
  std::printf("RAS events      %llu (INFO %llu / WARN %llu / FATAL %llu)\n",
              static_cast<unsigned long long>(s.ras_events),
              static_cast<unsigned long long>(s.ras_by_severity[0]),
              static_cast<unsigned long long>(s.ras_by_severity[1]),
              static_cast<unsigned long long>(s.ras_by_severity[2]));
  std::printf("I/O records     %llu\n",
              static_cast<unsigned long long>(s.io_records));
  std::printf("core-hours      %.4e\n", s.total_core_hours);
  return 0;
}

int cmd_report(const ArgMap& args) {
  const auto data = load(args);
  const auto analyzer = make_analyzer(data);
  core::ReportConfig rc;
  rc.trace_scale = args.get_double("scale", 1.0);
  const auto takeaways = core::evaluate_takeaways(analyzer, rc);
  if (args.get("format", "text") == "json")
    std::fputs(core::format_report_json(takeaways).c_str(), stdout);
  else
    std::fputs(core::format_report(takeaways).c_str(), stdout);
  return core::all_pass(takeaways) ? 0 : 1;
}

topology::Level parse_radius(const std::string& name) {
  if (name == "rack") return topology::Level::kRack;
  if (name == "midplane") return topology::Level::kMidplane;
  if (name == "board") return topology::Level::kNodeBoard;
  if (name == "card") return topology::Level::kComputeCard;
  throw failmine::ParseError("unknown radius '" + name +
                             "' (rack|midplane|board|card)");
}

int cmd_mtti(const ArgMap& args) {
  const auto data = load(args);
  const auto analyzer = make_analyzer(data);
  core::FilterConfig config;
  config.window_seconds = args.get_int("window", config.window_seconds);
  config.spatial_level = parse_radius(args.get("radius", "midplane"));
  const auto r = analyzer.interruption_analysis(config);
  std::printf("raw FATALs       %llu\n",
              static_cast<unsigned long long>(r.filter.input_events));
  std::printf("interruptions    %zu (%.1fx reduction)\n",
              r.filter.clusters.size(), r.filter.reduction_factor());
  std::printf("MTTI             %.3f days\n", r.mtti.mtti_days);
  if (!r.mtti.intervals_days.empty())
    std::printf("interval median  %.3f days\n", r.mtti.median_interval_days);
  return 0;
}

int cmd_fit(const ArgMap& args) {
  const auto data = load(args);
  const auto analyzer = make_analyzer(data);
  const auto min_sample =
      static_cast<std::size_t>(args.get_unsigned("min-sample", 40));
  const auto rows = analyzer.runtime_distribution_study(min_sample);
  if (rows.empty()) {
    std::printf("no failure class reaches %zu samples\n", min_sample);
    return 1;
  }
  for (const auto& row : rows) {
    const auto& best = row.fits[row.best_by_ks];
    std::printf("%-20s n=%-7zu best=%s (D=%.4f",
                joblog::exit_class_name(row.exit_class).c_str(),
                row.sample_size, distfit::family_name(best.family).c_str(),
                best.ks.statistic);
    for (const auto& p : best.dist->params())
      std::printf(", %s=%.4g", p.name.c_str(), p.value);
    std::printf(")\n");
  }
  return 0;
}

int cmd_experiments(const ArgMap& args) {
  sim::SimConfig config = sim::SimConfig::bench_scale();
  config.scale = args.get_double("scale", config.scale);
  const experiments::ExperimentInput input(config);
  experiments::print_all(input, stdout);
  return 0;
}

stream::BackpressurePolicy parse_policy(const std::string& name) {
  if (name == "block") return stream::BackpressurePolicy::kBlock;
  if (name == "drop") return stream::BackpressurePolicy::kDropNewest;
  throw failmine::ParseError("unknown policy '" + name + "' (block|drop)");
}

/// Shared by the single-pipeline and fleet stream modes: the pipeline
/// knobs every twin inherits.
stream::StreamConfig stream_config_from(const ArgMap& args,
                                        long long shuffle) {
  stream::StreamConfig config;
  config.machine = topology::MachineConfig::mira();
  config.shard_count = static_cast<std::size_t>(
      args.get_unsigned("shards", config.shard_count));
  // Twice the shuffle skew restores exact event-time order (see
  // sim/replay.hpp).
  config.max_lateness_seconds = args.get_int("lateness", 2 * shuffle);
  config.policy = parse_policy(args.get("policy", "block"));
  config.queue_capacity = static_cast<std::size_t>(
      args.get_unsigned("queue", config.queue_capacity));
  config.trace_sample_period = static_cast<std::uint32_t>(args.get_unsigned(
      "trace-sample", config.trace_sample_period, UINT32_MAX));
  stream::validate(config);  // before any load or simulation
  return config;
}

/// stream --fleet=N: N digital twins in one process, each replaying its
/// own in-process simulation (seed+i, sizes diverging with i, and an
/// elevated user-failure mix on the last twin so per-twin failure rates
/// visibly diverge). Every twin's instruments carry twin="t<i>" labels,
/// so /metrics, /query (`sum by (twin) (...)`), /fleet and the
/// per-label-group alert rules all separate the twins; the final
/// fleet_json() rollup goes to stdout.
int cmd_stream_fleet(const ArgMap& args) {
  const std::size_t twin_count =
      static_cast<std::size_t>(args.get_unsigned("fleet", 2));
  const long long shuffle = args.get_int("shuffle", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20130409));
  const double scale = args.get_double("scale", 0.01);
  // Every flag is read before a thread starts, so a bad value exits
  // cleanly.
  const stream::StreamConfig base = stream_config_from(args, shuffle);
  const double tsdb_seconds = std::max(0.05, args.get_double("tsdb", 1.0));
  const auto serve_port =
      static_cast<std::uint16_t>(args.get_unsigned("serve", 0, UINT16_MAX));
  const long long linger = args.get_int("serve-linger", 0);

  // Per-twin divergent workloads, simulated in process (--data is not
  // required in fleet mode).
  std::vector<std::vector<stream::StreamRecord>> replays(twin_count);
  for (std::size_t i = 0; i < twin_count; ++i) {
    sim::SimConfig sc = sim::SimConfig::test_scale();
    sc.scale = scale * (1.0 + 0.2 * static_cast<double>(i));
    sc.seed = seed + i;
    if (twin_count > 1 && i + 1 == twin_count)
      sc.user_failure_probability *= 1.5;  // the divergence-demo twin
    const auto trace = sim::simulate(sc);
    replays[i] = shuffle > 0
                     ? sim::shuffled_replay(trace, shuffle, seed + i)
                     : sim::build_replay(trace);
    std::fprintf(stderr, "[fleet] twin t%zu: %zu records (seed %llu)\n", i,
                 replays[i].size(),
                 static_cast<unsigned long long>(sc.seed));
  }

  stream::FleetConfig fleet_config;
  fleet_config.twin_count = twin_count;
  fleet_config.base = base;
  stream::StreamFleet fleet(fleet_config);

  const bool tsdb_enabled = args.has("tsdb");
  if (tsdb_enabled) {
    obs::tsdb().start(static_cast<std::int64_t>(tsdb_seconds * 1000.0));
    obs::alerts().set_history(&obs::tsdb());
  }

  // Fleet alert rules: twin-selector spellings of the built-in SLOs, so
  // each rule expands to one independent state machine per twin.
  const std::string rules_path = args.get("alert-rules", "");
  obs::alerts().set_rules(
      rules_path.empty()
          ? obs::parse_alert_rules(
                "stream-drops: rate(stream.records_dropped{twin=~\"*\"}) > 0\n"
                "stream-shard-stalled: "
                "value(stream.stalled_shards{twin=~\"*\"}) > 0\n")
          : obs::load_alert_rules_file(rules_path));
  obs::alerts().start(/*poll_ms=*/500);

  std::unique_ptr<obs::TelemetryServer> server;
  if (args.has("serve")) {
    obs::ServeConfig serve_config;
    serve_config.port = serve_port;
    server = std::make_unique<obs::TelemetryServer>(serve_config);
    server->set_fleet_handler([&fleet] { return fleet.fleet_json(); });
    server->set_snapshot_handler(
        [&fleet] { return fleet.twin(0).snapshot().to_json(); });
    server->set_health_handler([&fleet] { return fleet.healthy(); });
    server->start();
    std::fprintf(stderr, "[fleet] serving telemetry on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server->port()));
  }

  // Round-robin feeding keeps every twin live at once — the whole point
  // of fleet mode — instead of replaying twins back to back.
  std::vector<std::size_t> pos(twin_count, 0);
  std::vector<stream::StreamRecord> chunk;
  for (bool any = true; any;) {
    any = false;
    for (std::size_t i = 0; i < twin_count; ++i) {
      auto& replay = replays[i];
      if (pos[i] >= replay.size()) continue;
      any = true;
      const std::size_t n =
          std::min<std::size_t>(1024, replay.size() - pos[i]);
      chunk.assign(std::make_move_iterator(replay.begin() + pos[i]),
                   std::make_move_iterator(replay.begin() + pos[i] + n));
      fleet.twin(i).push_batch(std::move(chunk));
      pos[i] += n;
    }
  }
  fleet.finish();

  if (tsdb_enabled) obs::tsdb().stop();
  std::fputs(fleet.fleet_json().c_str(), stdout);
  for (std::size_t i = 0; i < twin_count; ++i) {
    const auto s = fleet.twin(i).snapshot();
    std::fprintf(stderr,
                 "[fleet] t%zu: in=%llu processed=%llu window rate=%.3f "
                 "interruptions=%llu\n",
                 i, static_cast<unsigned long long>(s.records_in),
                 static_cast<unsigned long long>(s.records_processed),
                 s.window_failure_rate,
                 static_cast<unsigned long long>(s.interruptions));
  }
  if (tsdb_enabled)
    std::fputs(
        obs::tsdb_trend_report(
            obs::tsdb(),
            {"sum(rate(stream.records_in{twin=~\"*\"}[10s]))",
             "sum by (twin) (rate(stream.records_processed{twin=~\"*\"}[10s]))",
             "sum by (twin) (value(stream.window.failure_rate{twin=~\"*\"}))"})
            .c_str(),
        stderr);
  if (server != nullptr) {
    if (linger > 0) std::this_thread::sleep_for(std::chrono::seconds(linger));
    server->stop();
  }
  obs::alerts().stop();
  return 0;
}

int cmd_stream(const ArgMap& args) {
  const long long shuffle = args.get_int("shuffle", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20130409));
  // Every flag is read before the load and before a thread starts, so a
  // bad value exits at once and cleanly.
  stream::StreamConfig config = stream_config_from(args, shuffle);
  const double tsdb_seconds = std::max(0.05, args.get_double("tsdb", 1.0));
  const auto serve_port =
      static_cast<std::uint16_t>(args.get_unsigned("serve", 0, UINT16_MAX));
  const auto interval =
      static_cast<std::size_t>(args.get_unsigned("interval", 100000));
  const long long linger = args.get_int("serve-linger", 0);

  const auto data = load(args);
  auto records = shuffle > 0 ? sim::shuffled_replay(data, shuffle, seed)
                             : sim::build_replay(data);

  // --predict attaches the failure-prediction subsystem as a router
  // operator: precursor mining, per-job risk scoring and the adaptive
  // checkpoint policy all run inline with the replay (predict/README in
  // DESIGN.md). Its live state is the "predict" snapshot section and,
  // with --serve, GET /predict.
  std::shared_ptr<predict::PredictOperator> predict_op;
  if (args.has("predict")) {
    predict::PredictConfig pc;
    pc.machine = config.machine;
    predict_op = std::make_shared<predict::PredictOperator>(pc);
    config.router_operator = predict_op;
  }

  stream::StreamPipeline pipeline(config);

  // --tsdb[=SECONDS] attaches the embedded time-series store: a
  // background thread scrapes every registry instrument into compressed
  // in-memory chunks (obs/tsdb.hpp), which backs --serve's /query and
  // /series endpoints, windowed alert evaluation, and the end-of-run
  // trend report. Started before the alert engine so rules evaluate
  // against history from their first poll.
  const bool tsdb_enabled = args.has("tsdb");
  if (tsdb_enabled) {
    obs::tsdb().start(static_cast<std::int64_t>(tsdb_seconds * 1000.0));
    obs::alerts().set_history(&obs::tsdb());
  }

  // SLO/alert engine: built-in rules unless --alert-rules overrides
  // them. Runs for the duration of the replay (plus any --serve-linger,
  // so a scraper can read final /alerts state).
  const std::string rules_path = args.get("alert-rules", "");
  obs::alerts().set_rules(rules_path.empty()
                              ? obs::default_alert_rules()
                              : obs::load_alert_rules_file(rules_path));
  obs::alerts().start(/*poll_ms=*/500);

  // --serve exposes live telemetry while the replay runs. Port 0 asks
  // the kernel for an ephemeral port; either way the bound port goes to
  // stderr so scrapers (and the e2e test) can find it.
  std::unique_ptr<obs::TelemetryServer> server;
  if (args.has("serve")) {
    obs::ServeConfig serve_config;
    serve_config.port = serve_port;
    server = std::make_unique<obs::TelemetryServer>(serve_config);
    server->set_snapshot_handler(
        [&pipeline] { return pipeline.snapshot().to_json(); });
    if (predict_op != nullptr)
      server->set_predict_handler(
          [&pipeline] { return pipeline.operator_snapshot_json() + "\n"; });
    server->set_health_handler([&pipeline] { return pipeline.healthy(); });
    server->start();
    std::fprintf(stderr, "[stream] serving telemetry on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server->port()));
  }

  std::size_t next_report = interval;
  std::vector<stream::StreamRecord> chunk;
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min<std::size_t>(1024, records.size() - i);
    chunk.assign(std::make_move_iterator(records.begin() + i),
                 std::make_move_iterator(records.begin() + i + n));
    pipeline.push_batch(std::move(chunk));
    i += n;
    if (interval > 0 && i >= next_report) {
      next_report += interval;
      const auto s = pipeline.snapshot();
      std::fprintf(stderr,
                   "[stream] in=%llu watermark=%lld window(%llds): jobs=%llu "
                   "failures=%llu rate=%.3f fatal=%llu interruptions=%llu\n",
                   static_cast<unsigned long long>(s.records_in),
                   static_cast<long long>(s.watermark),
                   static_cast<long long>(s.window_seconds),
                   static_cast<unsigned long long>(s.window_jobs),
                   static_cast<unsigned long long>(s.window_failures),
                   s.window_failure_rate,
                   static_cast<unsigned long long>(s.window_severity[2]),
                   static_cast<unsigned long long>(s.interruptions));
    }
  }
  pipeline.finish();
  auto snap = pipeline.snapshot();
  if (tsdb_enabled) {
    // stop() takes a final scrape, so the stored history covers the
    // exact end-of-replay counter state; /query keeps serving the
    // stored data through any --serve-linger window.
    obs::tsdb().stop();
    snap.sections.emplace_back("tsdb", obs::tsdb().stats_json());
  }
  std::fputs(snap.to_json().c_str(), stdout);
  if (tsdb_enabled)
    std::fputs(obs::tsdb_trend_report(
                   obs::tsdb(),
                   {"rate(stream.records_in[10s])",
                    "rate(stream.records_processed[10s])",
                    "value(stream.queue_depth)",
                    "value(stream.window.failure_rate)",
                    "p99(stream.router.batch_us[30s])"})
                   .c_str(),
               stderr);
  if (predict_op != nullptr) {
    // Safe to read directly: finish() has run, the router thread has
    // joined, and the operator is quiescent.
    const auto ps = predict_op->snapshot();
    std::fprintf(stderr,
                 "[predict] records=%llu warns=%llu interruptions=%llu "
                 "alerts=%llu jobs=%llu\n",
                 static_cast<unsigned long long>(ps.records),
                 static_cast<unsigned long long>(ps.warns),
                 static_cast<unsigned long long>(ps.interruptions),
                 static_cast<unsigned long long>(ps.alerts),
                 static_cast<unsigned long long>(ps.jobs_scored));
    std::fprintf(stderr,
                 "[predict] alert precision=%.3f recall=%.3f  risk "
                 "precision=%.3f recall=%.3f\n",
                 ps.alert_precision, ps.alert_recall, ps.risk_precision,
                 ps.risk_recall);
    std::fprintf(stderr,
                 "[predict] policy saved vs static: %.1f core-hours "
                 "(vs none: %.1f)\n",
                 ps.saved_vs_static_core_hours, ps.saved_vs_none_core_hours);
  }
  if (obs::causal_tracer().enabled())
    std::fputs(obs::causal_tracer().critical_path_text().c_str(), stderr);
  if (server != nullptr) {
    if (linger > 0) std::this_thread::sleep_for(std::chrono::seconds(linger));
    server->stop();
  }
  obs::alerts().stop();
  return 0;
}

/// A subcommand and every flag it reads; ArgMap rejects any other.
struct Command {
  int (*run)(const ArgMap&);
  std::vector<std::string> flags;
};

/// `stream --fleet` simulates its twins: a mode of its own, with its own
/// flags.
const Command kStreamFleet = {
    cmd_stream_fleet,
    {"fleet", "scale", "shards", "lateness", "shuffle", "seed", "policy",
     "queue", "serve", "serve-linger", "trace-sample", "alert-rules", "tsdb"}};

bool has_fleet_flag(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fleet" || arg.rfind("--fleet=", 0) == 0) return true;
  }
  return false;
}

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> kCommands = {
      {"simulate", {cmd_simulate, {"out", "scale", "seed", "days"}}},
      {"summary", {cmd_summary, {"data", "columnar", "ingest-threads"}}},
      {"report",
       {cmd_report, {"data", "scale", "format", "ingest-threads"}}},
      {"mtti", {cmd_mtti, {"data", "window", "radius", "ingest-threads"}}},
      {"fit", {cmd_fit, {"data", "min-sample", "ingest-threads"}}},
      {"experiments", {cmd_experiments, {"scale"}}},
      {"stream",
       {cmd_stream,
        {"data", "ingest-threads", "shards", "lateness", "shuffle", "seed",
         "policy", "queue", "interval", "serve", "serve-linger",
         "trace-sample", "alert-rules", "predict", "tsdb"}}},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return kUsageExitCode;
  }
  const std::string command = argv[1];
  const auto it = commands().find(command);
  if (it == commands().end()) {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    print_usage();
    return kUsageExitCode;
  }
  try {
    // Strips the global observability flags. The explicit flush() after
    // the subcommand lets an export failure surface as a nonzero exit
    // (the destructor can only print it).
    failmine::obs::ObsSession obs_session(&argc, argv);
    const Command& mode = command == "stream" && has_fleet_flag(argc, argv)
                              ? kStreamFleet
                              : it->second;
    const ArgMap args(argc, argv, 2, mode.flags);
    const int rc = mode.run(args);
    obs_session.flush();
    return rc;
  } catch (const failmine::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kUsageExitCode;
  }
}
