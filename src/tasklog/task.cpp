#include "tasklog/task.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::tasklog {

const std::vector<std::string>& task_csv_header() {
  static const std::vector<std::string> header = {
      "task_id", "job_id",     "sequence",      "start_time", "end_time",
      "nodes_used", "ranks_per_node", "exit_code", "exit_signal"};
  return header;
}

TaskLog::TaskLog(std::vector<TaskRecord> tasks) : tasks_(std::move(tasks)) {
  finalize();
}

void TaskLog::append(TaskRecord task) { tasks_.push_back(std::move(task)); }

void TaskLog::finalize() {
  const auto less = [](const TaskRecord& a, const TaskRecord& b) {
    if (a.job_id != b.job_id) return a.job_id < b.job_id;
    return a.sequence < b.sequence;
  };
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), less))
    std::stable_sort(tasks_.begin(), tasks_.end(), less);
}

std::span<const TaskRecord> TaskLog::job_range(std::uint64_t job_id) const {
  struct ByJob {
    bool operator()(const TaskRecord& t, std::uint64_t id) const {
      return t.job_id < id;
    }
    bool operator()(std::uint64_t id, const TaskRecord& t) const {
      return id < t.job_id;
    }
  };
  const auto [first, last] =
      std::equal_range(tasks_.begin(), tasks_.end(), job_id, ByJob{});
  return {first, last};
}

std::vector<TaskRecord> TaskLog::tasks_of_job(std::uint64_t job_id) const {
  const std::span<const TaskRecord> tasks = job_range(job_id);
  return {tasks.begin(), tasks.end()};
}

std::size_t TaskLog::task_count(std::uint64_t job_id) const {
  return job_range(job_id).size();
}

void TaskLog::write_csv(const std::string& path) const {
  FAILMINE_TRACE_SPAN("tasklog.write_csv");
  util::CsvWriter writer(path, task_csv_header());
  writer.write_rows(tasks_.size(), [this](util::CsvRowBuffer& row,
                                          std::size_t i) {
    const TaskRecord& t = tasks_[i];
    row.integer(t.task_id);
    row.integer(t.job_id);
    row.integer(t.sequence);
    row.timestamp(t.start_time);
    row.timestamp(t.end_time);
    row.integer(t.nodes_used);
    row.integer(t.ranks_per_node);
    row.integer(t.exit_code);
    row.integer(t.exit_signal);
  });
  writer.close();
}

namespace {

// Row is std::vector<std::string> (serial reader) or util::FieldVec
// (ingest engine); both index to something convertible to string_view.
template <class Row>
void parse_row_into(const Row& row, TaskRecord& t) {
  t.task_id = util::parse_uint(row[0]);
  t.job_id = util::parse_uint(row[1]);
  t.sequence = util::parse_u32(row[2]);
  t.start_time = util::parse_timestamp(row[3]);
  t.end_time = util::parse_timestamp(row[4]);
  t.nodes_used = util::parse_u32(row[5]);
  t.ranks_per_node = util::parse_u32(row[6]);
  t.exit_code = util::parse_i32(row[7]);
  t.exit_signal = util::parse_i32(row[8]);
  if (t.end_time < t.start_time)
    throw failmine::ParseError("task " + std::string(row[0]) +
                               " ends before it starts");
}

template <class Row>
tasklog::TaskRecord parse_row(const Row& row) {
  TaskRecord t;
  parse_row_into(row, t);
  return t;
}

}  // namespace

void parse_csv_row(const util::FieldVec& row, TaskRecord& out) {
  parse_row_into(row, out);
}

TaskLog TaskLog::read_csv(const std::string& path,
                          const ingest::LoadOptions& options,
                          ingest::Engine engine) {
  FAILMINE_TRACE_SPAN("tasklog.read_csv");
  if (!ingest::use_serial_reader(options, engine)) {
    return TaskLog(ingest::load_csv<TaskRecord>(
        path, task_csv_header(), "tasklog", "task log", "parse.tasklog.records",
        [](const util::FieldVec& row) { return parse_row(row); }, options));
  }
  util::CsvReader reader(path);
  if (reader.header() != task_csv_header())
    throw failmine::ParseError("unexpected task log header in " + path);
  obs::Counter& records = obs::metrics().counter("parse.tasklog.records");
  std::vector<TaskRecord> tasks;
  std::vector<std::string> row;
  while (reader.next(row)) {
    try {
      tasks.push_back(parse_row(row));
    } catch (const failmine::Error& e) {
      obs::metrics().counter("parse.lines_rejected").add();
      obs::logger().warn("parse.record_rejected",
                         {{"source", "tasklog"},
                          {"file", path},
                          {"row", reader.rows_read() + 1},
                          {"error", e.what()}});
      throw;
    }
    records.add();
  }
  return TaskLog(std::move(tasks));
}

}  // namespace failmine::tasklog
