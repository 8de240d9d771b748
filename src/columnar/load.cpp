#include "columnar/load.hpp"

#include <utility>

#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "obs/trace.hpp"
#include "raslog/event.hpp"
#include "tasklog/task.hpp"

namespace failmine::columnar {

JobTable load_job_table(const std::string& path,
                        const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("columnar.load_jobs");
  auto chunks = ingest::load_csv_fold<JobTableBuilder>(
      path, joblog::job_csv_header(), "joblog", "job log",
      "parse.joblog.records", [] { return JobTableBuilder(); },
      [](JobTableBuilder& b, const util::FieldVec& row) { b.add_csv_row(row); },
      options);
  return JobTableBuilder::merge(std::move(chunks));
}

RasTable load_ras_table(const std::string& path,
                        const topology::MachineConfig& config,
                        const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("columnar.load_ras");
  auto chunks = ingest::load_csv_fold<RasTableBuilder>(
      path, raslog::ras_csv_header(), "raslog", "RAS log",
      "parse.raslog.records", [&config] { return RasTableBuilder(config); },
      [](RasTableBuilder& b, const util::FieldVec& row) { b.add_csv_row(row); },
      options);
  return RasTableBuilder::merge(std::move(chunks),
                                ingest::effective_threads(options));
}

TaskTable load_task_table(const std::string& path,
                          const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("columnar.load_tasks");
  auto chunks = ingest::load_csv_fold<TaskTableBuilder>(
      path, tasklog::task_csv_header(), "tasklog", "task log",
      "parse.tasklog.records", [] { return TaskTableBuilder(); },
      [](TaskTableBuilder& b, const util::FieldVec& row) { b.add_csv_row(row); },
      options);
  return TaskTableBuilder::merge(std::move(chunks));
}

IoTable load_io_table(const std::string& path,
                      const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("columnar.load_io");
  auto chunks = ingest::load_csv_fold<IoTableBuilder>(
      path, iolog::io_csv_header(), "iolog", "I/O log", "parse.iolog.records",
      [] { return IoTableBuilder(); },
      [](IoTableBuilder& b, const util::FieldVec& row) { b.add_csv_row(row); },
      options);
  return IoTableBuilder::merge(std::move(chunks));
}

ColumnarDataset load_dataset(const std::string& directory,
                             const topology::MachineConfig& config,
                             const ingest::LoadOptions& options) {
  FAILMINE_TRACE_SPAN("columnar.load_dataset");
  ColumnarDataset ds;
  ds.ras = load_ras_table(directory + "/ras.csv", config, options);
  ds.jobs = load_job_table(directory + "/jobs.csv", options);
  ds.tasks = load_task_table(directory + "/tasks.csv", options);
  ds.io = load_io_table(directory + "/io.csv", options);
  return ds;
}

}  // namespace failmine::columnar
