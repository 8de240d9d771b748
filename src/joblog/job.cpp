#include "joblog/job.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::joblog {

double JobRecord::core_hours(const topology::MachineConfig& config) const {
  return job_core_hours(nodes_used, static_cast<double>(config.cores_per_node),
                        runtime_seconds());
}

topology::Partition JobRecord::partition(
    const topology::MachineConfig& config) const {
  const int mids = topology::midplanes_for_nodes(nodes_used, config);
  return topology::Partition(partition_first_midplane, mids, config);
}

const std::vector<std::string>& job_csv_header() {
  static const std::vector<std::string> header = {
      "job_id",     "user_id",   "project_id",      "queue",
      "submit_time", "start_time", "end_time",      "nodes_used",
      "task_count", "requested_walltime", "exit_code", "exit_signal",
      "exit_class", "partition_first_midplane"};
  return header;
}

JobLog::JobLog(std::vector<JobRecord> jobs) : jobs_(std::move(jobs)) { finalize(); }

void JobLog::append(JobRecord job) { jobs_.push_back(std::move(job)); }

void JobLog::finalize() {
  const auto less = [](const JobRecord& a, const JobRecord& b) {
    if (a.start_time != b.start_time) return a.start_time < b.start_time;
    return a.job_id < b.job_id;
  };
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), less))
    std::stable_sort(jobs_.begin(), jobs_.end(), less);
  index_.clear();
  index_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(jobs_[i].job_id, i);
    if (!inserted)
      throw failmine::DomainError("duplicate job id " +
                                  std::to_string(jobs_[i].job_id));
  }
}

const JobRecord& JobLog::by_id(std::uint64_t job_id) const {
  const auto it = index_.find(job_id);
  if (it == index_.end())
    throw failmine::DomainError("unknown job id " + std::to_string(job_id));
  return jobs_[it->second];
}

bool JobLog::contains(std::uint64_t job_id) const {
  return index_.contains(job_id);
}

std::vector<JobRecord> JobLog::failures() const {
  std::vector<JobRecord> out;
  for (const auto& j : jobs_)
    if (j.failed()) out.push_back(j);
  return out;
}

void JobLog::write_csv(const std::string& path) const {
  FAILMINE_TRACE_SPAN("joblog.write_csv");
  util::CsvWriter writer(path, job_csv_header());
  writer.write_rows(jobs_.size(), [this](util::CsvRowBuffer& row,
                                         std::size_t i) {
    const JobRecord& j = jobs_[i];
    row.integer(j.job_id);
    row.integer(j.user_id);
    row.integer(j.project_id);
    row.text(j.queue);
    row.timestamp(j.submit_time);
    row.timestamp(j.start_time);
    row.timestamp(j.end_time);
    row.integer(j.nodes_used);
    row.integer(j.task_count);
    row.integer(j.requested_walltime);
    row.integer(j.exit_code);
    row.integer(j.exit_signal);
    row.text(exit_class_token(j.exit_class));
    row.integer(j.partition_first_midplane);
  });
  writer.close();
}

namespace {

// Row is std::vector<std::string> (serial reader) or util::FieldVec
// (ingest engine); both index to something convertible to string_view.
// Fills `j` in place so string fields keep their capacity when the
// caller reuses one record across rows.
template <class Row>
void parse_row_into(const Row& row, JobRecord& j) {
  j.job_id = util::parse_uint(row[0]);
  j.user_id = util::parse_u32(row[1]);
  j.project_id = util::parse_u32(row[2]);
  j.queue = std::string_view(row[3]);
  j.submit_time = util::parse_timestamp(row[4]);
  j.start_time = util::parse_timestamp(row[5]);
  j.end_time = util::parse_timestamp(row[6]);
  j.nodes_used = util::parse_u32(row[7]);
  j.task_count = util::parse_u32(row[8]);
  j.requested_walltime = util::parse_int(row[9]);
  j.exit_code = util::parse_i32(row[10]);
  j.exit_signal = util::parse_i32(row[11]);
  j.exit_class = exit_class_from_name(row[12]);
  j.partition_first_midplane = util::parse_i32(row[13]);
  if (j.end_time < j.start_time)
    throw failmine::ParseError("job " + std::string(row[0]) +
                               " ends before it starts");
  if (j.start_time < j.submit_time)
    throw failmine::ParseError("job " + std::string(row[0]) +
                               " starts before submission");
}

template <class Row>
JobRecord parse_row(const Row& row) {
  JobRecord j;
  parse_row_into(row, j);
  return j;
}

}  // namespace

void parse_csv_row(const util::FieldVec& row, JobRecord& out) {
  parse_row_into(row, out);
}

JobLog JobLog::read_csv(const std::string& path,
                        const ingest::LoadOptions& options,
                        ingest::Engine engine) {
  if (ingest::use_serial_reader(options, engine)) {
    std::vector<JobRecord> jobs;
    for_each_csv(path, [&](const JobRecord& j) {
      jobs.push_back(j);
      return true;
    });
    return JobLog(std::move(jobs));
  }
  FAILMINE_TRACE_SPAN("joblog.read_csv");
  return JobLog(ingest::load_csv<JobRecord>(
      path, job_csv_header(), "joblog", "job log", "parse.joblog.records",
      [](const util::FieldVec& row) { return parse_row(row); }, options));
}

void JobLog::for_each_csv(
    const std::string& path,
    const std::function<bool(const JobRecord&)>& callback) {
  FAILMINE_TRACE_SPAN("joblog.read_csv");
  util::CsvReader reader(path);
  if (reader.header() != job_csv_header())
    throw failmine::ParseError("unexpected job log header in " + path);
  obs::Counter& records = obs::metrics().counter("parse.joblog.records");
  std::vector<std::string> row;
  while (reader.next(row)) {
    JobRecord j;
    try {
      j = parse_row(row);
    } catch (const failmine::Error& e) {
      obs::metrics().counter("parse.lines_rejected").add();
      obs::logger().warn("parse.record_rejected",
                         {{"source", "joblog"},
                          {"file", path},
                          {"row", reader.rows_read() + 1},
                          {"error", e.what()}});
      throw;
    }
    records.add();
    if (!callback(j)) break;
  }
}

}  // namespace failmine::joblog
