#include "columnar/table.hpp"

namespace failmine::columnar {

namespace {

template <class T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

joblog::JobRecord JobTable::row(std::size_t i) const {
  joblog::JobRecord j;
  j.job_id = job_id[i];
  j.user_id = user_id[i];
  j.project_id = project_id[i];
  j.queue = queue_dict.name(queue_code[i]);
  j.start_time = start_time.at(i);
  j.submit_time = j.start_time - wait_seconds[i];
  j.end_time = j.start_time + runtime_seconds[i];
  j.nodes_used = nodes_used[i];
  j.task_count = task_count[i];
  j.requested_walltime = requested_walltime[i];
  j.exit_code = exit_code[i];
  j.exit_signal = exit_signal[i];
  j.exit_class = static_cast<joblog::ExitClass>(exit_class_code[i]);
  j.partition_first_midplane = partition_first_midplane[i];
  return j;
}

std::vector<joblog::JobRecord> JobTable::to_records() const {
  std::vector<joblog::JobRecord> out(rows());
  start_time.for_each([&](std::size_t i, util::UnixSeconds start) {
    joblog::JobRecord& j = out[i];
    j.job_id = job_id[i];
    j.user_id = user_id[i];
    j.project_id = project_id[i];
    j.queue = queue_dict.name(queue_code[i]);
    j.start_time = start;
    j.submit_time = start - wait_seconds[i];
    j.end_time = start + runtime_seconds[i];
    j.nodes_used = nodes_used[i];
    j.task_count = task_count[i];
    j.requested_walltime = requested_walltime[i];
    j.exit_code = exit_code[i];
    j.exit_signal = exit_signal[i];
    j.exit_class = static_cast<joblog::ExitClass>(exit_class_code[i]);
    j.partition_first_midplane = partition_first_midplane[i];
  });
  return out;
}

std::size_t JobTable::bytes() const {
  return vec_bytes(job_id) + vec_bytes(user_id) + vec_bytes(project_id) +
         vec_bytes(queue_code) + queue_dict.bytes() + start_time.bytes() +
         vec_bytes(wait_seconds) + vec_bytes(runtime_seconds) +
         vec_bytes(nodes_used) + vec_bytes(task_count) +
         vec_bytes(requested_walltime) + vec_bytes(exit_code) +
         vec_bytes(exit_signal) + vec_bytes(exit_class_code) +
         vec_bytes(partition_first_midplane) + failed.bytes();
}

raslog::RasEvent RasTable::row(std::size_t i) const {
  raslog::RasEvent e;
  e.record_id = record_id[i];
  e.timestamp = timestamp.at(i);
  e.message_id = message_dict.name(message_code[i]);
  e.severity = static_cast<raslog::Severity>(severity_code[i]);
  e.component = static_cast<raslog::Component>(component_code[i]);
  e.category = static_cast<raslog::Category>(category_code[i]);
  e.location = location[i];
  if (has_job.test(i)) e.job_id = job_id[i];
  e.text = std::string(text.view(i));
  return e;
}

std::vector<raslog::RasEvent> RasTable::to_records() const {
  std::vector<raslog::RasEvent> out(rows());
  timestamp.for_each([&](std::size_t i, util::UnixSeconds t) {
    raslog::RasEvent& e = out[i];
    e.record_id = record_id[i];
    e.timestamp = t;
    e.message_id = message_dict.name(message_code[i]);
    e.severity = static_cast<raslog::Severity>(severity_code[i]);
    e.component = static_cast<raslog::Component>(component_code[i]);
    e.category = static_cast<raslog::Category>(category_code[i]);
    e.location = location[i];
    if (has_job.test(i)) e.job_id = job_id[i];
    e.text = std::string(text.view(i));
  });
  return out;
}

std::size_t RasTable::bytes() const {
  std::size_t total = vec_bytes(record_id) + timestamp.bytes() +
                      vec_bytes(message_code) + message_dict.bytes() +
                      vec_bytes(severity_code) + vec_bytes(component_code) +
                      vec_bytes(category_code) + vec_bytes(location) +
                      has_job.bytes() + vec_bytes(job_id) + text.bytes();
  for (const Bitmap& b : severity_bits) total += b.bytes();
  return total;
}

tasklog::TaskRecord TaskTable::row(std::size_t i) const {
  tasklog::TaskRecord t;
  t.task_id = task_id[i];
  t.job_id = job_id[i];
  t.sequence = sequence[i];
  t.start_time = start_time.at(i);
  t.end_time = t.start_time + runtime_seconds[i];
  t.nodes_used = nodes_used[i];
  t.ranks_per_node = ranks_per_node[i];
  t.exit_code = exit_code[i];
  t.exit_signal = exit_signal[i];
  return t;
}

std::vector<tasklog::TaskRecord> TaskTable::to_records() const {
  std::vector<tasklog::TaskRecord> out(rows());
  start_time.for_each([&](std::size_t i, util::UnixSeconds start) {
    tasklog::TaskRecord& t = out[i];
    t.task_id = task_id[i];
    t.job_id = job_id[i];
    t.sequence = sequence[i];
    t.start_time = start;
    t.end_time = start + runtime_seconds[i];
    t.nodes_used = nodes_used[i];
    t.ranks_per_node = ranks_per_node[i];
    t.exit_code = exit_code[i];
    t.exit_signal = exit_signal[i];
  });
  return out;
}

std::size_t TaskTable::bytes() const {
  return vec_bytes(task_id) + vec_bytes(job_id) + vec_bytes(sequence) +
         start_time.bytes() + vec_bytes(runtime_seconds) +
         vec_bytes(nodes_used) + vec_bytes(ranks_per_node) +
         vec_bytes(exit_code) + vec_bytes(exit_signal) + failed.bytes();
}

iolog::IoRecord IoTable::row(std::size_t i) const {
  iolog::IoRecord r;
  r.job_id = job_id[i];
  r.bytes_read = bytes_read[i];
  r.bytes_written = bytes_written[i];
  r.read_time_seconds = read_time_seconds[i];
  r.write_time_seconds = write_time_seconds[i];
  r.files_accessed = files_accessed[i];
  r.ranks_doing_io = ranks_doing_io[i];
  return r;
}

std::vector<iolog::IoRecord> IoTable::to_records() const {
  std::vector<iolog::IoRecord> out(rows());
  for (std::size_t i = 0; i < rows(); ++i) out[i] = row(i);
  return out;
}

std::size_t IoTable::bytes() const {
  return vec_bytes(job_id) + vec_bytes(bytes_read) + vec_bytes(bytes_written) +
         vec_bytes(read_time_seconds) + vec_bytes(write_time_seconds) +
         vec_bytes(files_accessed) + vec_bytes(ranks_doing_io);
}

}  // namespace failmine::columnar
