// failmine/tasklog/task.hpp
//
// runjob-style task execution records.
//
// One Cobalt job script typically launches several physical execution
// tasks (runjob invocations); the paper's job-structure analysis (T-B)
// correlates failures with the number of tasks. Each task records its own
// time window, node usage and exit status within the parent job.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ingest/loader.hpp"
#include "joblog/exit_status.hpp"
#include "util/time.hpp"

namespace failmine::util {
class FieldVec;
}  // namespace failmine::util

namespace failmine::tasklog {

/// One physical execution task of a job.
struct TaskRecord {
  std::uint64_t task_id = 0;
  std::uint64_t job_id = 0;
  std::uint32_t sequence = 0;       ///< task index within the job, 0-based
  util::UnixSeconds start_time = 0;
  util::UnixSeconds end_time = 0;
  std::uint32_t nodes_used = 0;
  std::uint32_t ranks_per_node = 1;
  int exit_code = 0;
  int exit_signal = 0;

  std::int64_t runtime_seconds() const { return end_time - start_time; }
  bool failed() const { return exit_code != 0 || exit_signal != 0; }

  friend bool operator==(const TaskRecord&, const TaskRecord&) = default;
};

/// The task log CSV column order.
const std::vector<std::string>& task_csv_header();

/// Parses one CSV row (task_csv_header() order) into `out` in place.
/// Throws failmine::Error on invalid rows; `out` is unspecified
/// afterwards.
void parse_csv_row(const util::FieldVec& row, TaskRecord& out);

/// In-memory task log, sorted by job: a job's tasks are one contiguous
/// run, found by binary search.
class TaskLog {
 public:
  TaskLog() = default;
  explicit TaskLog(std::vector<TaskRecord> tasks);

  const std::vector<TaskRecord>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }

  void append(TaskRecord task);
  /// Sorts by (job_id, sequence), keeping the append order of equal keys
  /// (as the columnar merge does).
  void finalize();

  /// Tasks belonging to a job, in sequence order (empty if none).
  std::vector<TaskRecord> tasks_of_job(std::uint64_t job_id) const;

  /// Number of tasks of a job.
  std::size_t task_count(std::uint64_t job_id) const;

  void write_csv(const std::string& path) const;

  /// Reads a log written by write_csv. Defaults to the parallel mmap
  /// ingest engine; `options.threads == 1` (or Engine::kSerial) selects
  /// the serial reader. Both paths produce identical results.
  static TaskLog read_csv(const std::string& path,
                          const ingest::LoadOptions& options = {},
                          ingest::Engine engine = ingest::Engine::kAuto);

 private:
  /// The run of tasks_ whose job_id is `job_id`.
  std::span<const TaskRecord> job_range(std::uint64_t job_id) const;

  std::vector<TaskRecord> tasks_;
};

}  // namespace failmine::tasklog
