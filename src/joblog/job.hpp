// failmine/joblog/job.hpp
//
// Cobalt-style job scheduling records and the JobLog container.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ingest/loader.hpp"
#include "joblog/exit_status.hpp"
#include "topology/machine.hpp"
#include "topology/partition.hpp"
#include "util/time.hpp"

namespace failmine::util {
class FieldVec;
}  // namespace failmine::util

namespace failmine::joblog {

/// Core-hours of a job (nodes * cores/node * hours): the one expression
/// every core-hour sum uses, whatever the record representation.
inline double job_core_hours(std::uint32_t nodes_used, double cores_per_node,
                             std::int64_t runtime_seconds) {
  return static_cast<double>(nodes_used) * cores_per_node *
         (static_cast<double>(runtime_seconds) / 3600.0);
}

/// One record from the job scheduling log.
struct JobRecord {
  std::uint64_t job_id = 0;
  std::uint32_t user_id = 0;
  std::uint32_t project_id = 0;
  std::string queue;                     ///< "prod-capability", "prod-short", ...
  util::UnixSeconds submit_time = 0;
  util::UnixSeconds start_time = 0;
  util::UnixSeconds end_time = 0;
  std::uint32_t nodes_used = 0;          ///< allocation size in nodes
  std::uint32_t task_count = 0;          ///< runjob tasks launched by the script
  std::int64_t requested_walltime = 0;   ///< seconds
  int exit_code = 0;
  int exit_signal = 0;
  ExitClass exit_class = ExitClass::kSuccess;
  int partition_first_midplane = 0;      ///< allocation placement

  /// Wall-clock runtime in seconds (end - start).
  std::int64_t runtime_seconds() const { return end_time - start_time; }

  /// Queue wait in seconds (start - submit).
  std::int64_t wait_seconds() const { return start_time - submit_time; }

  /// Core-hours consumed (nodes * cores/node * hours).
  double core_hours(const topology::MachineConfig& config) const;

  /// The partition the allocation occupied.
  topology::Partition partition(const topology::MachineConfig& config) const;

  bool failed() const { return is_failure(exit_class); }

  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// The job log CSV column order (what write_csv emits and read_csv
/// expects).
const std::vector<std::string>& job_csv_header();

/// Parses one CSV row (job_csv_header() order) into `out` in place —
/// string fields keep their capacity across calls, so a reused record
/// parses with no per-row allocation. Throws failmine::Error on invalid
/// rows; `out` is unspecified afterwards.
void parse_csv_row(const util::FieldVec& row, JobRecord& out);

/// In-memory job log, ordered by start time.
class JobLog {
 public:
  JobLog() = default;
  explicit JobLog(std::vector<JobRecord> jobs);

  const std::vector<JobRecord>& jobs() const { return jobs_; }
  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  void append(JobRecord job);
  void finalize();  ///< sort by (start_time, job_id) and rebuild the index

  /// Looks up a job by id; throws DomainError if absent.
  const JobRecord& by_id(std::uint64_t job_id) const;
  bool contains(std::uint64_t job_id) const;

  /// All failed jobs in time order.
  std::vector<JobRecord> failures() const;

  void write_csv(const std::string& path) const;

  /// Reads a log written by write_csv. Defaults to the parallel mmap
  /// ingest engine; `options.threads == 1` (or Engine::kSerial) selects
  /// the serial reader. Both paths produce identical results.
  static JobLog read_csv(const std::string& path,
                         const ingest::LoadOptions& options = {},
                         ingest::Engine engine = ingest::Engine::kAuto);

  /// Streams a CSV job log row by row in O(1) memory; `callback` returns
  /// false to stop early.
  static void for_each_csv(const std::string& path,
                           const std::function<bool(const JobRecord&)>& callback);

 private:
  std::vector<JobRecord> jobs_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace failmine::joblog
