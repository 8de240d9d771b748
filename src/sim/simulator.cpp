#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/io_model.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "util/error.hpp"

namespace failmine::sim {

namespace {

/// Splits each job's window into task_count sequential task records; the
/// last task carries the job's exit status, earlier tasks succeed.
std::vector<tasklog::TaskRecord> generate_tasks(
    const std::vector<joblog::JobRecord>& jobs, util::Rng& rng) {
  std::vector<tasklog::TaskRecord> tasks;
  std::uint64_t next_task_id = 1;
  for (const auto& job : jobs) {
    const std::uint32_t n = std::max<std::uint32_t>(1, job.task_count);
    const double window = static_cast<double>(job.runtime_seconds());

    // Random positive durations summing to the window: draw n exponential
    // stick lengths and normalize.
    std::vector<double> sticks(n);
    double total = 0.0;
    for (auto& s : sticks) {
      s = rng.exponential(1.0);
      total += s;
    }
    util::UnixSeconds cursor = job.start_time;
    for (std::uint32_t i = 0; i < n; ++i) {
      tasklog::TaskRecord t;
      t.task_id = next_task_id++;
      t.job_id = job.job_id;
      t.sequence = i;
      t.start_time = cursor;
      const double span = window * sticks[i] / total;
      t.end_time = i + 1 == n
                       ? job.end_time
                       : cursor + static_cast<util::UnixSeconds>(
                                      std::max(1.0, span));
      if (t.end_time > job.end_time) t.end_time = job.end_time;
      if (t.end_time < t.start_time) t.end_time = t.start_time;
      cursor = t.end_time;
      t.nodes_used = job.nodes_used;
      t.ranks_per_node =
          static_cast<std::uint32_t>(1u << rng.uniform_index(5));  // 1..16
      if (i + 1 == n) {
        t.exit_code = job.exit_code;
        t.exit_signal = job.exit_signal;
      } else {
        t.exit_code = 0;
        t.exit_signal = 0;
      }
      tasks.push_back(t);
    }
  }
  return tasks;
}

}  // namespace

SimResult simulate(const SimConfig& config) {
  FAILMINE_TRACE_SPAN("sim.simulate");
  config.validate();
  util::Rng rng(config.seed);

  std::vector<joblog::JobRecord> jobs;
  {
    FAILMINE_TRACE_SPAN("sim.workload");
    const Population population(config, rng);
    const WorkloadModel workload(config, population);
    jobs = workload.generate(rng);
  }

  std::vector<FatalEpisode> episodes;
  std::vector<raslog::RasEvent> events;
  {
    FAILMINE_TRACE_SPAN("sim.faults");
    const FaultModel faults(config, rng);
    episodes = faults.apply_system_failures(jobs, rng);
    events = faults.generate_events(episodes, rng);
  }

  std::vector<tasklog::TaskRecord> tasks;
  {
    FAILMINE_TRACE_SPAN("sim.tasks");
    tasks = generate_tasks(jobs, rng);
  }

  std::vector<iolog::IoRecord> io_records;
  {
    FAILMINE_TRACE_SPAN("sim.io");
    const IoModel io_model(config);
    io_records = io_model.generate(jobs, rng);
  }

  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("sim.jobs_generated").add(jobs.size());
  registry.counter("sim.events_generated").add(events.size());
  registry.counter("sim.tasks_generated").add(tasks.size());
  registry.counter("sim.io_records_generated").add(io_records.size());
  registry.counter("sim.episodes_generated").add(episodes.size());
  obs::logger().info("sim.trace_generated", {{"scale", config.scale},
                                             {"seed", config.seed},
                                             {"jobs", jobs.size()},
                                             {"ras_events", events.size()},
                                             {"tasks", tasks.size()}});

  SimResult result;
  {
    FAILMINE_TRACE_SPAN("sim.logs");
    result.job_log = joblog::JobLog(std::move(jobs));
    result.task_log = tasklog::TaskLog(std::move(tasks));
    // generate_events returns the events sorted and numbered.
    result.ras_log = raslog::RasLog(std::move(events));
    result.io_log = iolog::IoLog(std::move(io_records));
  }
  result.episodes = std::move(episodes);
  return result;
}

void write_dataset(const SimResult& result, const std::string& directory) {
  FAILMINE_TRACE_SPAN("sim.write_dataset");
  result.ras_log.write_csv(directory + "/ras.csv");
  result.job_log.write_csv(directory + "/jobs.csv");
  result.task_log.write_csv(directory + "/tasks.csv");
  result.io_log.write_csv(directory + "/io.csv");
}

SimResult load_dataset(const std::string& directory,
                       const topology::MachineConfig& machine,
                       const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("sim.load_dataset");
  SimResult result;
  result.ras_log =
      raslog::RasLog::read_csv(directory + "/ras.csv", machine, options);
  result.job_log = joblog::JobLog::read_csv(directory + "/jobs.csv", options);
  result.task_log =
      tasklog::TaskLog::read_csv(directory + "/tasks.csv", options);
  result.io_log = iolog::IoLog::read_csv(directory + "/io.csv", options);
  return result;
}

}  // namespace failmine::sim
