// perfbench/driver/main.cpp
//
// Driver of the repository benchmark; perfbench/run.py builds and runs
// it. One invocation runs one workload:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--source-id ID]
//
// It generates the workload's input from the seed (set-up), then runs the
// workload in a closed loop: one client, repetitions back to back, the
// first of them a warm-up that is checked but not timed. Every answer of
// every repetition is checked against a reference computed at set-up
// from the simulated logs in memory. Each metric prints with its unit,
// and the last line of stdout is one JSON object {correct, attempted,
// failed, metrics}. The exit code is 1 if any answer was wrong, 2 on a
// usage or set-up error.
//
// All workloads share one input, the Mira twin from the seed at kScale:
//   batch_row        sim::load_dataset -> the 12 columnar::QueryEngine
//                    analyses on the row backend -> core::evaluate_takeaways
//                    (what `failmine_cli report` runs)
//   batch_columnar   columnar::load_dataset -> the same 12 analyses on the
//                    columnar backend
//   stream_ordered   sim::build_replay -> one producer pushing 1024-record
//                    batches into a StreamPipeline (lateness 0, blocking)
//                    -> finish() -> snapshot(); the reorderer's fast path
//   stream_shuffled  sim::shuffled_replay with 1800 s skew into the same
//                    pipeline with lateness 3600, through the watermark heap
//
// --trace 0 reports the end-to-end metrics as medians over the measured
// repetitions. The program's always-on spans, counters and histograms
// stay as shipped; the retained spans are cleared after every repetition
// so that each one starts alike. --trace 1 alternates untraced
// repetitions with traced ones, which open the benchmark's own spans
// (spans.hpp) and read the program's spans and registry as
// per-repetition deltas, and reports the per-layer metrics; a layer the
// workload does not run reads 0.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "answers.hpp"
#include "columnar/engine.hpp"
#include "columnar/load.hpp"
#include "core/report.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "stream/pipeline.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace failmine;
using perfbench::SpanLog;
using perfbench::Timed;
using Clock = std::chrono::steady_clock;

/// Input size as a share of the paper-sized Mira trace.
constexpr double kScale = 0.1;
/// Set-ups per invocation; setup_s is their median.
constexpr int kSetups = 3;
constexpr unsigned kIngestThreads = 4;
/// The producer, the router and two shards make four busy threads, one
/// per core of the 4-core host the benchmark was sized on.
constexpr std::size_t kShards = 2;
/// Records per push_batch, as failmine_cli stream pushes them.
constexpr std::size_t kPushBatch = 1024;
constexpr std::int64_t kShuffleSkewSeconds = 1800;
/// Twice the skew restores exact event-time order (sim/replay.hpp).
constexpr std::int64_t kShuffleLatenessSeconds = 2 * kShuffleSkewSeconds;
/// Floor on measured repetitions of each kind, whatever --seconds says.
constexpr std::size_t kMinRepetitions = 3;

enum class Workload { kBatchRow, kBatchColumnar, kStreamOrdered, kStreamShuffled };

constexpr std::pair<std::string_view, Workload> kWorkloads[] = {
    {"batch_row", Workload::kBatchRow},
    {"batch_columnar", Workload::kBatchColumnar},
    {"stream_ordered", Workload::kStreamOrdered},
    {"stream_shuffled", Workload::kStreamShuffled},
};

bool is_stream(Workload w) {
  return w == Workload::kStreamOrdered || w == Workload::kStreamShuffled;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// --trace 1 reports these, in BENCHMARK.json order.
constexpr MetricDef kLayerMetrics[] = {
    {"ingest.load_s", "s"},
    {"ingest.load_cpu_s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.chunk_busy_s", "s"},
    {"ingest.worker_util", "fraction"},
    {"ingest.rows", "count"},
    {"ingest.rows_rejected", "count"},
    {"raslog.read_s", "s"},
    {"joblog.read_s", "s"},
    {"tasklog.read_s", "s"},
    {"iolog.read_s", "s"},
    {"columnar.load_ras_s", "s"},
    {"columnar.load_jobs_s", "s"},
    {"columnar.load_tasks_s", "s"},
    {"columnar.load_io_s", "s"},
    {"columnar.build_s", "s"},
    {"columnar.bytes_per_row", "B/row"},
    {"columnar.dict_entries", "count"},
    {"query.e01_s", "s"},
    {"query.e02_s", "s"},
    {"query.e03_s", "s"},
    {"query.e06_s", "s"},
    {"query.e11_s", "s"},
    {"query.total_s", "s"},
    {"core.analyzer_s", "s"},
    {"core.report_s", "s"},
    {"core.e10_s", "s"},
    {"distfit.fit_s", "s"},
    {"stream.router_busy_s", "s"},
    {"stream.router_util", "fraction"},
    {"stream.wait_reorder_p50_us", "us"},
    {"stream.wait_reorder_p99_us", "us"},
    {"stream.push_s", "s"},
    {"stream.finish_s", "s"},
    {"stream.shard_busy_s", "s"},
    {"stream.shard_util_max", "fraction"},
    {"stream.shard_skew", "ratio"},
    {"stream.wait_ring_p50_us", "us"},
    {"stream.wait_ring_p99_us", "us"},
    {"stream.wait_shard_p50_us", "us"},
    {"stream.wait_shard_p99_us", "us"},
    {"stream.apply_p99_us", "us"},
    {"stream.traces_sampled", "count"},
    {"stream.records_dropped", "count"},
    {"stream.records_late", "count"},
    {"sim.simulate_s", "s"},
    {"sim.write_csv_s", "s"},
    {"sim.replay_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans_dropped", "count"},
    {"error_rate", "fraction"},
};

struct Args {
  std::string workload_name;
  Workload workload = Workload::kBatchRow;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string source_id = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const auto* it = std::find_if(
          std::begin(kWorkloads), std::end(kWorkloads),
          [&](const auto& w) { return w.first == value; });
      if (it == std::end(kWorkloads))
        throw std::invalid_argument("unknown workload '" + value + "'");
      args.workload_name = value;
      args.workload = it->second;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      throw std::invalid_argument("unknown option " + std::string(key));
    }
  }
  if (argc % 2 == 0 || args.workload_name.empty() || args.work_dir.empty())
    throw std::invalid_argument(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 --work-dir DIR [--source-id ID]");
  return args;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- process probes -------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::uint64_t self_status_kb(const char* key) {
  const auto kb = perfbench::status_kb(read_text("/proc/self/status"), key);
  if (!kb)
    throw std::runtime_error(std::string("no ") + key +
                             " in /proc/self/status");
  return *kb;
}

/// Memory high-water mark of one repetition above the RSS it started
/// with. Constructed once the repetition's inputs exist: it returns freed
/// heap to the kernel, then resets the kernel's high-water mark (5 written
/// to clear_refs), so the generator's replay and the simulator's heap
/// stay out of the number.
class PeakRss {
 public:
  PeakRss() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear)
      throw std::runtime_error(
          "cannot reset VmHWM through /proc/self/clear_refs");
    start_kb_ = self_status_kb("VmRSS");
  }

  double mb() const {
    const std::uint64_t peak = self_status_kb("VmHWM");
    return peak > start_kb_ ? static_cast<double>(peak - start_kb_) / 1024.0
                            : 0.0;
  }

 private:
  std::uint64_t start_kb_ = 0;
};

std::string cpu_model() {
  std::istringstream lines(read_text("/proc/cpuinfo"));
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    const std::size_t first =
        colon == std::string::npos ? colon
                                   : line.find_first_not_of(" \t", colon + 1);
    return first == std::string::npos ? std::string() : line.substr(first);
  }
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

// ---- answers --------------------------------------------------------------

/// Wall seconds of the QueryEngine calls of one batch repetition.
struct QueryTimes {
  double e01 = 0.0;
  double e02 = 0.0;
  double e03 = 0.0;
  double e06 = 0.0;
  double e11 = 0.0;
  double total() const { return e01 + e02 + e03 + e06 + e11; }
};

core::ReportConfig report_config() {
  core::ReportConfig config;
  config.trace_scale = kScale;
  return config;
}

perfbench::QueryAnswers run_queries(const columnar::QueryEngine& engine,
                                    SpanLog& log, QueryTimes& t) {
  perfbench::QueryAnswers a;
  const util::UnixSeconds origin = sim::SimConfig{}.observation_start;
  const auto call = [&log](const char* name, double& seconds,
                           const auto& fn) {
    Timed span(log, name);
    fn();
    seconds += span.stop();
  };
  call("QueryEngine::dataset_summary", t.e01,
       [&] { a.summary = engine.dataset_summary(); });
  call("QueryEngine::exit_breakdown", t.e02,
       [&] { a.exits = engine.exit_breakdown(); });
  call("QueryEngine::per_user_stats", t.e03,
       [&] { a.users = engine.per_user_stats(); });
  call("QueryEngine::per_project_stats", t.e03,
       [&] { a.projects = engine.per_project_stats(); });
  call("QueryEngine::ras_breakdown", t.e06,
       [&] { a.ras = engine.ras_breakdown(); });
  call("QueryEngine::submissions_by_hour", t.e11,
       [&] { a.submissions_by_hour = engine.submissions_by_hour(); });
  call("QueryEngine::submissions_by_weekday", t.e11,
       [&] { a.submissions_by_weekday = engine.submissions_by_weekday(); });
  call("QueryEngine::failures_by_hour", t.e11,
       [&] { a.failures_by_hour = engine.failures_by_hour(); });
  call("QueryEngine::events_by_hour", t.e11,
       [&] { a.events_by_hour = engine.events_by_hour(); });
  call("QueryEngine::monthly_submissions", t.e11,
       [&] { a.monthly_submissions = engine.monthly_submissions(origin); });
  call("QueryEngine::monthly_failures", t.e11,
       [&] { a.monthly_failures = engine.monthly_failures(origin); });
  call("QueryEngine::monthly_fatal_events", t.e11,
       [&] { a.monthly_fatal_events = engine.monthly_fatal_events(origin); });
  return a;
}

// ---- set-up ---------------------------------------------------------------

struct Inputs {
  std::string csv_dir;
  std::uint64_t rows = 0;  ///< CSV rows, or replay records
  std::uint64_t csv_bytes = 0;
  std::vector<stream::StreamRecord> replay;
  perfbench::NamedDigests reference;  ///< batch answers
  std::uint64_t stream_reference = 0;
  std::vector<double> setup_s;
  std::vector<double> simulate_s;
  std::vector<double> write_csv_s;
  std::vector<double> replay_s;
};

/// The answers every repetition must reproduce, computed from the
/// simulated logs in memory, before any CSV round trip.
void compute_reference(Workload workload, const sim::SimResult& trace,
                       Inputs& in) {
  const auto machine = topology::MachineConfig::mira();
  const core::JointAnalyzer analyzer(trace.job_log, trace.task_log,
                                     trace.ras_log, trace.io_log, machine);
  if (is_stream(workload)) {
    perfbench::StreamFacts facts;
    facts.exits = analyzer.exit_breakdown();
    facts.severity_totals = trace.ras_log.severity_counts();
    const core::FilteredMtti mtti =
        analyzer.interruption_analysis(core::FilterConfig{});
    facts.fatal_input_events = mtti.filter.input_events;
    facts.interruptions = mtti.filter.clusters.size();
    facts.mtti = mtti.mtti;
    facts.window_begin = analyzer.window_begin();
    facts.window_end = analyzer.window_end();
    in.stream_reference = perfbench::digest_stream(facts);
    in.rows = in.replay.size();
    return;
  }
  SpanLog off(false, 0);
  QueryTimes unused;
  in.reference = perfbench::digest_queries(
      run_queries(columnar::QueryEngine(trace.job_log, trace.task_log,
                                        trace.ras_log, trace.io_log, machine),
                  off, unused));
  if (workload == Workload::kBatchRow) {
    const perfbench::NamedDigests takeaways = perfbench::digest_takeaways(
        core::evaluate_takeaways(analyzer, report_config()));
    in.reference.insert(in.reference.end(), takeaways.begin(),
                        takeaways.end());
  }
  in.rows = trace.job_log.size() + trace.task_log.size() +
            trace.ras_log.size() + trace.io_log.size();
  for (const char* file : {"ras.csv", "jobs.csv", "tasks.csv", "io.csv"})
    in.csv_bytes += std::filesystem::file_size(in.csv_dir + "/" + file);
}

Inputs set_up(const Args& args) {
  Inputs in;
  in.csv_dir = args.work_dir + "/csv";
  std::filesystem::create_directories(in.csv_dir);
  sim::SimConfig config;
  config.scale = kScale;
  config.seed = args.seed;
  for (int i = 0; i < kSetups; ++i) {
    in.replay = {};  // the last set-up's replay goes before the next is built
    const auto t0 = Clock::now();
    const sim::SimResult trace = sim::simulate(config);
    const double simulated = seconds_since(t0);
    const auto t1 = Clock::now();
    switch (args.workload) {
      case Workload::kBatchRow:
      case Workload::kBatchColumnar:
        sim::write_dataset(trace, in.csv_dir);
        break;
      case Workload::kStreamOrdered:
        in.replay = sim::build_replay(trace);
        break;
      case Workload::kStreamShuffled:
        in.replay =
            sim::shuffled_replay(trace, kShuffleSkewSeconds, args.seed);
        break;
    }
    const double emitted = seconds_since(t1);
    in.setup_s.push_back(simulated + emitted);
    in.simulate_s.push_back(simulated);
    (is_stream(args.workload) ? in.replay_s : in.write_csv_s)
        .push_back(emitted);
    if (i + 1 == kSetups) compute_reference(args.workload, trace, in);
  }
  return in;
}

// ---- repetitions ----------------------------------------------------------

struct Rep {
  double answer_s = 0.0;
  double records_per_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t spans_dropped = 0;
  std::map<std::string, double> layers;  ///< traced repetitions only
};

double lookup(const std::map<std::string, double>& values,
              const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

/// Takes the program's spans of a finished repetition out of the
/// process-wide collector, which starts the next repetition empty.
std::vector<obs::SpanRecord> take_program_spans(Rep& rep) {
  std::vector<obs::SpanRecord> spans = obs::tracer().records();
  rep.spans_dropped = obs::tracer().dropped();
  obs::tracer().clear();
  return spans;
}

/// The program's spans of one repetition, in seconds summed by name.
std::map<std::string, double> span_seconds(
    const std::vector<obs::SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const obs::SpanRecord& s : spans)
    out[s.name] += static_cast<double>(s.duration_us) / 1e6;
  return out;
}

Rep batch_repetition(const Args& args, const Inputs& in, SpanLog& log) {
  const auto machine = topology::MachineConfig::mira();
  ingest::LoadOptions options;
  options.threads = kIngestThreads;

  Rep rep;
  rep.attempted = in.reference.size();
  double load_s = 0.0;
  double load_cpu_s = 0.0;
  double analyzer_s = 0.0;
  double report_s = 0.0;
  QueryTimes query;
  perfbench::NamedDigests got;
  std::uint32_t root = 0;
  const obs::MetricsSample before = obs::metrics().sample();
  try {
    const PeakRss rss;
    const double cpu0 = cpu_seconds();
    Timed whole(log, "repetition");
    root = whole.id();
    // Stops the clocks once every answer is in memory, before the loaded
    // data is freed.
    const auto answered = [&] {
      rep.answer_s = whole.stop();
      rep.cpu_s = cpu_seconds() - cpu0;
      rep.peak_rss_mb = rss.mb();
    };
    if (args.workload == Workload::kBatchRow) {
      sim::SimResult data;
      {
        Timed span(log, "sim::load_dataset");
        const double c0 = cpu_seconds();
        data = sim::load_dataset(in.csv_dir, machine, options);
        load_cpu_s = cpu_seconds() - c0;
        load_s = span.stop();
        span.count("rows", data.job_log.size() + data.task_log.size() +
                               data.ras_log.size() + data.io_log.size());
      }
      const perfbench::QueryAnswers answers = run_queries(
          columnar::QueryEngine(data.job_log, data.task_log, data.ras_log,
                                data.io_log, machine),
          log, query);
      std::optional<core::JointAnalyzer> analyzer;
      {
        Timed span(log, "core::JointAnalyzer");
        analyzer.emplace(data.job_log, data.task_log, data.ras_log,
                         data.io_log, machine);
        analyzer_s = span.stop();
      }
      std::vector<core::Takeaway> takeaways;
      {
        Timed span(log, "core::evaluate_takeaways");
        takeaways = core::evaluate_takeaways(*analyzer, report_config());
        report_s = span.stop();
      }
      answered();
      got = perfbench::digest_queries(answers);
      const perfbench::NamedDigests more =
          perfbench::digest_takeaways(takeaways);
      got.insert(got.end(), more.begin(), more.end());
    } else {
      columnar::ColumnarDataset data;
      {
        Timed span(log, "columnar::load_dataset");
        const double c0 = cpu_seconds();
        data = columnar::load_dataset(in.csv_dir, machine, options);
        load_cpu_s = cpu_seconds() - c0;
        load_s = span.stop();
        span.count("rows", data.rows());
      }
      const perfbench::QueryAnswers answers =
          run_queries(columnar::QueryEngine(data, machine), log, query);
      answered();
      got = perfbench::digest_queries(answers);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] repetition failed: %s\n", e.what());
    got.clear();
  }
  const perfbench::MetricsDelta delta(before, obs::metrics().sample());
  // A wrong or missing answer fails, and so does every rejected CSV row.
  rep.failed = perfbench::mismatches(in.reference, got) +
               delta.counter("parse.lines_rejected");
  rep.records_per_s = ratio(static_cast<double>(in.rows), rep.answer_s);
  const std::vector<obs::SpanRecord> spans = take_program_spans(rep);
  if (!log.enabled()) return rep;
  log.adopt(root, spans);

  const std::map<std::string, double> program = span_seconds(spans);
  std::map<std::string, double>& m = rep.layers;
  const double chunk_busy = lookup(program, "ingest.chunk");
  m["ingest.load_s"] = load_s;
  m["ingest.load_cpu_s"] = load_cpu_s;
  m["ingest.mb_per_s"] = ratio(static_cast<double>(in.csv_bytes) / 1e6, load_s);
  m["ingest.chunk_busy_s"] = chunk_busy;
  m["ingest.worker_util"] = ratio(chunk_busy, load_s * kIngestThreads);
  m["ingest.rows"] = static_cast<double>(delta.counter("parse.lines_total"));
  m["ingest.rows_rejected"] =
      static_cast<double>(delta.counter("parse.lines_rejected"));
  for (const std::string parser : {"raslog", "joblog", "tasklog", "iolog"})
    m[parser + ".read_s"] = lookup(program, parser + ".read_csv");
  for (const std::string table : {"ras", "jobs", "tasks", "io"})
    m["columnar.load_" + table + "_s"] =
        lookup(program, "columnar.load_" + table);
  m["columnar.build_s"] = lookup(program, "columnar.build");
  m["columnar.bytes_per_row"] =
      ratio(static_cast<double>(delta.counter("columnar.bytes")),
            static_cast<double>(delta.counter("columnar.rows")));
  m["columnar.dict_entries"] =
      static_cast<double>(delta.counter("columnar.dict_entries"));
  m["query.e01_s"] = query.e01;
  m["query.e02_s"] = query.e02;
  m["query.e03_s"] = query.e03;
  m["query.e06_s"] = query.e06;
  m["query.e11_s"] = query.e11;
  m["query.total_s"] = query.total();
  m["core.analyzer_s"] = analyzer_s;
  m["core.report_s"] = report_s;
  m["core.e10_s"] = lookup(program, "e10.ras_correlation");
  m["distfit.fit_s"] = lookup(program, "distfit.fit_all");
  return rep;
}

Rep stream_repetition(const Args& args, const Inputs& in, SpanLog& log) {
  stream::StreamConfig config;
  config.machine = topology::MachineConfig::mira();
  config.shard_count = kShards;
  config.policy = stream::BackpressurePolicy::kBlock;
  config.max_lateness_seconds = args.workload == Workload::kStreamShuffled
                                    ? kShuffleLatenessSeconds
                                    : 0;

  Rep rep;
  // Pushing moves the records out, so each repetition replays a fresh
  // copy, made before its clocks start (failmine_cli likewise builds its
  // replay vector before the first push).
  std::vector<stream::StreamRecord> records = in.replay;
  rep.attempted = records.size();
  std::size_t accepted = 0;
  double push_s = 0.0;
  double finish_s = 0.0;
  double stream_s = 0.0;
  std::optional<stream::StreamSnapshot> snapshot;
  std::uint32_t root = 0;
  const obs::MetricsSample before = obs::metrics().sample();
  try {
    const PeakRss rss;
    const double cpu0 = cpu_seconds();
    Timed whole(log, "repetition");
    root = whole.id();
    std::optional<stream::StreamPipeline> pipeline;
    {
      Timed span(log, "StreamPipeline");
      pipeline.emplace(config);
    }
    const auto first_push = Clock::now();
    std::vector<stream::StreamRecord> chunk;
    for (std::size_t i = 0; i < records.size();) {
      const std::size_t n = std::min(kPushBatch, records.size() - i);
      chunk.assign(std::make_move_iterator(records.begin() + i),
                   std::make_move_iterator(records.begin() + i + n));
      Timed span(log, "StreamPipeline::push_batch");
      const std::size_t took = pipeline->push_batch(std::move(chunk));
      push_s += span.stop();
      span.count("records", took);
      accepted += took;
      i += n;
    }
    {
      Timed span(log, "StreamPipeline::finish");
      pipeline->finish();
      finish_s = span.stop();
    }
    stream_s = seconds_since(first_push);
    {
      Timed span(log, "StreamPipeline::snapshot");
      snapshot = pipeline->snapshot();
      span.count("records_processed", snapshot->records_processed);
    }
    rep.answer_s = whole.stop();
    rep.cpu_s = cpu_seconds() - cpu0;
    rep.peak_rss_mb = rss.mb();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] repetition failed: %s\n", e.what());
    snapshot.reset();
  }
  const perfbench::MetricsDelta delta(before, obs::metrics().sample());
  // A record the pipeline did not accept, or applied late, fails; a final
  // answer off the batch reference fails every record.
  if (!snapshot || snapshot->records_processed != accepted ||
      perfbench::digest_stream(perfbench::facts_of(*snapshot)) !=
          in.stream_reference)
    rep.failed = rep.attempted;
  else
    rep.failed = (rep.attempted - accepted) + snapshot->records_late;
  rep.records_per_s = ratio(static_cast<double>(accepted), stream_s);
  const std::vector<obs::SpanRecord> spans = take_program_spans(rep);
  if (!log.enabled()) return rep;
  log.adopt(root, spans);

  std::map<std::string, double>& m = rep.layers;
  const double router_busy =
      delta.histogram("stream.router.batch_us").sum / 1e6;
  m["stream.router_busy_s"] = router_busy;
  m["stream.router_util"] = ratio(router_busy, stream_s);
  m["stream.wait_reorder_p50_us"] =
      delta.quantile("causal.stage.reorder_us", 0.50);
  m["stream.wait_reorder_p99_us"] =
      delta.quantile("causal.stage.reorder_us", 0.99);
  m["stream.push_s"] = push_s;
  m["stream.finish_s"] = finish_s;
  double shard_busy = 0.0;
  double busiest = 0.0;
  double most = 0.0;
  double processed = 0.0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string prefix = "stream.shard" + std::to_string(s);
    const double busy = delta.histogram(prefix + ".apply_us").sum / 1e6;
    const double done =
        static_cast<double>(delta.counter(prefix + ".processed"));
    shard_busy += busy;
    busiest = std::max(busiest, busy);
    most = std::max(most, done);
    processed += done;
  }
  m["stream.shard_busy_s"] = shard_busy;
  m["stream.shard_util_max"] = ratio(busiest, stream_s);
  m["stream.shard_skew"] =
      ratio(most, processed / static_cast<double>(kShards));
  m["stream.wait_ring_p50_us"] = delta.quantile("causal.stage.ring_us", 0.50);
  m["stream.wait_ring_p99_us"] = delta.quantile("causal.stage.ring_us", 0.99);
  m["stream.wait_shard_p50_us"] =
      delta.quantile("causal.stage.shard_us", 0.50);
  m["stream.wait_shard_p99_us"] =
      delta.quantile("causal.stage.shard_us", 0.99);
  m["stream.apply_p99_us"] = delta.quantile("causal.stage.apply_us", 0.99);
  m["stream.traces_sampled"] =
      static_cast<double>(delta.counter("causal.sampled"));
  m["stream.records_dropped"] =
      static_cast<double>(delta.counter("stream.records_dropped"));
  m["stream.records_late"] =
      static_cast<double>(delta.counter("stream.records_late"));
  return rep;
}

// ---- output ---------------------------------------------------------------

/// Prints each metric on a line of its own and collects the JSON object.
class Report {
 public:
  void add(const MetricDef& def, double value, const std::string& note) {
    std::printf("  %-28s %16.6g %-10s %s\n", def.name, value, def.unit,
                note.c_str());
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + std::string(def.name) + "\": {\"value\": " +
             obs::json_number(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

std::vector<double> column(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& r : reps) out.push_back(r.*field);
  return out;
}

std::string spread_note(const std::vector<double>& values) {
  const perfbench::Quartiles q = perfbench::quartiles(values);
  char buf[96];
  std::snprintf(buf, sizeof buf, "median of %zu, quartiles %.6g..%.6g",
                values.size(), q.q1, q.q3);
  return buf;
}

/// One digest over the whole reference answer, for comparing runs.
std::uint64_t answer_digest(const Args& args, const Inputs& in) {
  if (is_stream(args.workload)) return in.stream_reference;
  perfbench::Digest d;
  for (const auto& [name, digest] : in.reference) {
    d.add_string(name);
    d.add_u64(digest);
  }
  return d.value();
}

/// Code, host and input a result came from, so that numbers from
/// different hosts or inputs are never compared silently.
std::string provenance(const Args& args, const Inputs& in,
                       std::size_t repetitions, std::size_t traced) {
  std::string out = "{\"source\":";
  obs::append_json_string(out, args.source_id);
  out += ",\"workload\":";
  obs::append_json_string(out, args.workload_name);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  out += ",\"scale\":" + obs::json_number(kScale);
  out += ",\"input_rows\":" + std::to_string(in.rows);
  out += ",\"csv_bytes\":" + std::to_string(in.csv_bytes);
  out += ",\"answer_digest\":\"" + perfbench::hex64(answer_digest(args, in)) +
         "\"";
  out += ",\"setups\":" + std::to_string(kSetups);
  out += ",\"repetitions\":" + std::to_string(repetitions);
  out += ",\"traced_repetitions\":" + std::to_string(traced);
  out += ",\"ingest_threads\":" + std::to_string(kIngestThreads);
  out += ",\"shards\":" + std::to_string(kShards);
  out += ",\"nproc\":" + std::to_string(usable_cpus());
  out += ",\"cpu_model\":";
  obs::append_json_string(out, cpu_model());
  out += ",\"build_type\":";
  obs::append_json_string(out, PERFBENCH_BUILD_TYPE);
  out += "}";
  return out;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  const Inputs in = set_up(args);
  SpanLog untraced(false, args.seed);
  SpanLog traced(args.trace, args.seed);
  obs::tracer().clear();  // set-up spans

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t spans_dropped = 0;
  const auto repetition = [&](SpanLog& log) {
    Rep r = is_stream(args.workload) ? stream_repetition(args, in, log)
                                     : batch_repetition(args, in, log);
    attempted += r.attempted;
    failed += r.failed;
    spans_dropped += r.spans_dropped;
    return r;
  };

  // In a fresh process the first repetition runs 1.3-1.6x slower than
  // the rest (cold allocator and page tables): it is checked, not timed.
  repetition(untraced);
  std::vector<Rep> plain;
  std::vector<Rep> deep;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_rep = args.trace && i % 2 == 1;
    Rep r = repetition(traced_rep ? traced : untraced);
    (traced_rep ? deep : plain).push_back(std::move(r));
    const bool enough = plain.size() >= kMinRepetitions &&
                        (!args.trace || deep.size() >= kMinRepetitions);
    if (enough && seconds_since(start) >= args.seconds) break;
  }

  std::printf("perfbench %s, seed %llu, %s\n", args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  Report report;
  if (!args.trace) {
    const auto add = [&report](const MetricDef& def,
                               const std::vector<double>& values) {
      report.add(def, perfbench::median(values), spread_note(values));
    };
    add({"answer_s", "s"}, column(plain, &Rep::answer_s));
    add({"records_per_s", "records/s"}, column(plain, &Rep::records_per_s));
    add({"cpu_s", "s"}, column(plain, &Rep::cpu_s));
    add({"peak_rss_mb", "MB"}, column(plain, &Rep::peak_rss_mb));
    add({"setup_s", "s"}, in.setup_s);
  } else {
    std::map<std::string, double> layers;
    for (const MetricDef& def : kLayerMetrics) {
      std::vector<double> samples;
      for (const Rep& r : deep) samples.push_back(lookup(r.layers, def.name));
      layers[def.name] = perfbench::median(samples);
    }
    layers["sim.simulate_s"] = perfbench::median(in.simulate_s);
    layers["sim.write_csv_s"] = perfbench::median(in.write_csv_s);
    layers["sim.replay_s"] = perfbench::median(in.replay_s);
    layers["obs.trace_overhead"] =
        ratio(perfbench::median(column(deep, &Rep::answer_s)),
              perfbench::median(column(plain, &Rep::answer_s)));
    layers["obs.spans_dropped"] = static_cast<double>(spans_dropped);
    layers["error_rate"] =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    const std::string note =
        "median of " + std::to_string(deep.size()) + " traced repetitions";
    for (const MetricDef& def : kLayerMetrics)
      report.add(def, layers[def.name], note);

    const std::string path = args.work_dir + "/trace-" + args.workload_name +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream out(path);
    out << traced.to_json() << std::flush;
    if (!out) throw std::runtime_error("cannot write " + path);
    std::fprintf(stderr, "[perfbench] spans written to %s\n", path.c_str());
  }
  std::printf("provenance %s\n",
              provenance(args, in, plain.size(), deep.size()).c_str());
  if (failed > 0)
    std::printf("FAILED: %llu of %llu operations\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), report.json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
