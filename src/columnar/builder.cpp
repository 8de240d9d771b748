#include "columnar/builder.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <utility>

#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "raslog/event.hpp"
#include "tasklog/task.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace failmine::columnar {

namespace {

std::uint32_t checked_u32_span(std::int64_t seconds, const char* what) {
  if (seconds < 0 || seconds > static_cast<std::int64_t>(UINT32_MAX))
    throw failmine::DomainError(std::string(what) +
                                " outside the columnar u32 range: " +
                                std::to_string(seconds));
  return static_cast<std::uint32_t>(seconds);
}

template <class T>
void append_vec(std::vector<T>& dst, std::vector<T>& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
  src.clear();
  src.shrink_to_fit();
}

/// Copies a chunk column into rows [at, at + src.size()) of a presized
/// merged column.
template <class T>
void copy_slice(std::vector<T>& dst, std::size_t at,
                const std::vector<T>& src) {
  std::copy(src.begin(), src.end(),
            dst.begin() + static_cast<std::ptrdiff_t>(at));
}

/// copy_slice for dictionary codes, mapped through a merge_from remap.
void remap_slice(std::vector<std::uint32_t>& dst, std::size_t at,
                 const std::vector<std::uint32_t>& codes,
                 const std::vector<std::uint32_t>& remap) {
  for (std::size_t i = 0; i < codes.size(); ++i) dst[at + i] = remap[codes[i]];
}

std::vector<std::uint32_t> identity_remap(std::uint32_t size) {
  std::vector<std::uint32_t> remap(size);
  std::iota(remap.begin(), remap.end(), std::uint32_t{0});
  return remap;
}

/// Stable permutation that sorts rows by `less` (row indices compared).
template <class Less>
std::vector<std::size_t> sort_permutation(std::size_t n, Less&& less) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), less);
  return perm;
}

template <class T>
void apply_permutation(std::vector<T>& v,
                       const std::vector<std::size_t>& perm) {
  std::vector<T> out;
  out.reserve(v.size());
  for (const std::size_t i : perm) out.push_back(std::move(v[i]));
  v = std::move(out);
}

/// Flushes the build counters. The two fallback counters advance by 0
/// or 1 on every merge, so an export carries them even when no merge
/// fell back: columnar.merge_sorted when the chunks arrived out of
/// canonical order and the rows had to be permuted, and
/// columnar.timestamps_plain when a non-empty timestamp column sealed as
/// plain i64 instead of delta-encoded.
void flush_build_metrics(std::size_t rows, std::size_t bytes,
                         std::size_t dict_entries, bool permuted,
                         bool timestamps_plain) {
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("columnar.rows").add(rows);
  registry.counter("columnar.bytes").add(bytes);
  registry.counter("columnar.dict_entries").add(dict_entries);
  registry.counter("columnar.merge_sorted").add(permuted ? 1 : 0);
  registry.counter("columnar.timestamps_plain")
      .add(rows > 0 && timestamps_plain ? 1 : 0);
}

}  // namespace

// ---- JobTableBuilder ---------------------------------------------------

void JobTableBuilder::reserve(std::size_t n) {
  job_id_.reserve(n);
  user_id_.reserve(n);
  project_id_.reserve(n);
  queue_code_.reserve(n);
  start_time_.reserve(n);
  wait_seconds_.reserve(n);
  runtime_seconds_.reserve(n);
  nodes_used_.reserve(n);
  task_count_.reserve(n);
  requested_walltime_.reserve(n);
  exit_code_.reserve(n);
  exit_signal_.reserve(n);
  exit_class_code_.reserve(n);
  partition_first_midplane_.reserve(n);
}

void JobTableBuilder::add(const joblog::JobRecord& j) {
  wait_seconds_.push_back(
      checked_u32_span(j.start_time - j.submit_time, "job queue wait"));
  runtime_seconds_.push_back(
      checked_u32_span(j.end_time - j.start_time, "job runtime"));
  job_id_.push_back(j.job_id);
  user_id_.push_back(j.user_id);
  project_id_.push_back(j.project_id);
  queue_code_.push_back(queue_dict_.encode(j.queue));
  start_time_.push_back(j.start_time);
  nodes_used_.push_back(j.nodes_used);
  task_count_.push_back(j.task_count);
  requested_walltime_.push_back(j.requested_walltime);
  exit_code_.push_back(j.exit_code);
  exit_signal_.push_back(j.exit_signal);
  exit_class_code_.push_back(static_cast<std::uint8_t>(j.exit_class));
  partition_first_midplane_.push_back(j.partition_first_midplane);
}

void JobTableBuilder::add_csv_row(const util::FieldVec& row) {
  joblog::parse_csv_row(row, scratch_);
  add(scratch_);
}

JobTable JobTableBuilder::merge(std::vector<JobTableBuilder> chunks) {
  FAILMINE_TRACE_SPAN("columnar.build");
  JobTable t;
  std::vector<util::UnixSeconds> start_time;
  if (!chunks.empty()) {
    JobTableBuilder& first = chunks.front();
    t.queue_dict = std::move(first.queue_dict_);
    t.job_id = std::move(first.job_id_);
    t.user_id = std::move(first.user_id_);
    t.project_id = std::move(first.project_id_);
    t.queue_code = std::move(first.queue_code_);
    start_time = std::move(first.start_time_);
    t.wait_seconds = std::move(first.wait_seconds_);
    t.runtime_seconds = std::move(first.runtime_seconds_);
    t.nodes_used = std::move(first.nodes_used_);
    t.task_count = std::move(first.task_count_);
    t.requested_walltime = std::move(first.requested_walltime_);
    t.exit_code = std::move(first.exit_code_);
    t.exit_signal = std::move(first.exit_signal_);
    t.exit_class_code = std::move(first.exit_class_code_);
    t.partition_first_midplane = std::move(first.partition_first_midplane_);
    std::vector<std::uint32_t> remap;
    for (std::size_t ci = 1; ci < chunks.size(); ++ci) {
      JobTableBuilder& c = chunks[ci];
      t.queue_dict.merge_from(c.queue_dict_, remap);
      t.queue_code.reserve(t.queue_code.size() + c.queue_code_.size());
      for (const std::uint32_t code : c.queue_code_)
        t.queue_code.push_back(remap[code]);
      append_vec(t.job_id, c.job_id_);
      append_vec(t.user_id, c.user_id_);
      append_vec(t.project_id, c.project_id_);
      append_vec(start_time, c.start_time_);
      append_vec(t.wait_seconds, c.wait_seconds_);
      append_vec(t.runtime_seconds, c.runtime_seconds_);
      append_vec(t.nodes_used, c.nodes_used_);
      append_vec(t.task_count, c.task_count_);
      append_vec(t.requested_walltime, c.requested_walltime_);
      append_vec(t.exit_code, c.exit_code_);
      append_vec(t.exit_signal, c.exit_signal_);
      append_vec(t.exit_class_code, c.exit_class_code_);
      append_vec(t.partition_first_midplane, c.partition_first_midplane_);
    }
  }
  const std::size_t n = t.job_id.size();
  const auto key_less = [&](std::size_t a, std::size_t b) {
    if (start_time[a] != start_time[b]) return start_time[a] < start_time[b];
    return t.job_id[a] < t.job_id[b];
  };
  bool sorted = true;
  for (std::size_t i = 1; i < n && sorted; ++i) sorted = !key_less(i, i - 1);
  if (!sorted) {
    const auto perm = sort_permutation(n, key_less);
    apply_permutation(t.job_id, perm);
    apply_permutation(t.user_id, perm);
    apply_permutation(t.project_id, perm);
    apply_permutation(t.queue_code, perm);
    apply_permutation(start_time, perm);
    apply_permutation(t.wait_seconds, perm);
    apply_permutation(t.runtime_seconds, perm);
    apply_permutation(t.nodes_used, perm);
    apply_permutation(t.task_count, perm);
    apply_permutation(t.requested_walltime, perm);
    apply_permutation(t.exit_code, perm);
    apply_permutation(t.exit_signal, perm);
    apply_permutation(t.exit_class_code, perm);
    apply_permutation(t.partition_first_midplane, perm);
  }
  t.start_time = TimestampColumn(std::move(start_time));
  t.start_time.seal();
  t.failed.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    if (joblog::is_failure(static_cast<joblog::ExitClass>(t.exit_class_code[i])))
      t.failed.set(i);
  flush_build_metrics(n, t.bytes(), t.queue_dict.size(), !sorted,
                      !t.start_time.delta_encoded());
  return t;
}

// ---- RasTableBuilder ---------------------------------------------------

void RasTableBuilder::reserve(std::size_t n) {
  record_id_.reserve(n);
  timestamp_.reserve(n);
  message_code_.reserve(n);
  severity_code_.reserve(n);
  component_code_.reserve(n);
  category_code_.reserve(n);
  location_.reserve(n);
  has_job_.reserve(n);
  job_id_.reserve(n);
}

void RasTableBuilder::add(const raslog::RasEvent& e) {
  record_id_.push_back(e.record_id);
  timestamp_.push_back(e.timestamp);
  message_code_.push_back(message_dict_.encode(e.message_id));
  severity_code_.push_back(static_cast<std::uint8_t>(e.severity));
  component_code_.push_back(static_cast<std::uint8_t>(e.component));
  category_code_.push_back(static_cast<std::uint8_t>(e.category));
  location_.push_back(e.location);
  has_job_.push_back(e.job_id.has_value() ? 1 : 0);
  job_id_.push_back(e.job_id.value_or(0));
  text_.push_back(e.text);
}

void RasTableBuilder::add_csv_row(const util::FieldVec& row) {
  // Field order (and so the first thrown error on a bad row) matches the
  // raslog row parser exactly.
  record_id_.push_back(util::parse_uint(row[0]));
  struct Rollback {
    std::vector<std::uint64_t>& ids;
    bool armed = true;
    ~Rollback() {
      if (armed) ids.pop_back();
    }
  } rollback{record_id_};
  timestamp_.push_back(util::parse_timestamp(row[1]));
  struct RollbackTs {
    std::vector<util::UnixSeconds>& ts;
    bool armed = true;
    ~RollbackTs() {
      if (armed) ts.pop_back();
    }
  } rollback_ts{timestamp_};
  const std::uint8_t severity =
      static_cast<std::uint8_t>(raslog::severity_from_name(row[3]));
  const std::uint8_t component =
      static_cast<std::uint8_t>(raslog::component_from_name(row[4]));
  const std::uint8_t category =
      static_cast<std::uint8_t>(raslog::category_from_name(row[5]));
  const topology::Location location =
      topology::Location::parse(row[6], *config_);
  const bool has_job = !row[7].empty();
  const std::uint64_t job = has_job ? util::parse_uint(row[7]) : 0;
  // All throwing parses are done; commit the row.
  rollback.armed = false;
  rollback_ts.armed = false;
  message_code_.push_back(message_dict_.encode(row[2]));
  severity_code_.push_back(severity);
  component_code_.push_back(component);
  category_code_.push_back(category);
  location_.push_back(location);
  has_job_.push_back(has_job ? 1 : 0);
  job_id_.push_back(job);
  text_.push_back(row[8]);
}

RasTable RasTableBuilder::merge(std::vector<RasTableBuilder> chunks,
                                unsigned threads) {
  FAILMINE_TRACE_SPAN("columnar.build");
  RasTable t;
  const std::size_t n_chunks = chunks.size();
  // Serial phase: fold the chunk message dictionaries in file order
  // (chunk 0's codes are already final) and place every chunk's rows and
  // text bytes.
  std::vector<std::vector<std::uint32_t>> message_remap(n_chunks);
  std::vector<std::size_t> row_at(n_chunks + 1, 0);
  std::vector<std::size_t> text_at(n_chunks + 1, 0);
  for (std::size_t ci = 0; ci < n_chunks; ++ci) {
    RasTableBuilder& c = chunks[ci];
    if (ci == 0) {
      t.message_dict = std::move(c.message_dict_);
      message_remap[0] = identity_remap(t.message_dict.size());
    } else {
      t.message_dict.merge_from(c.message_dict_, message_remap[ci]);
    }
    row_at[ci + 1] = row_at[ci] + c.rows();
    text_at[ci + 1] = text_at[ci] + c.text_.text_bytes();
  }

  // Parallel phase. Zero-filling tens of MB of fresh pages would be the
  // longest serial step left, so the merged columns are sized
  // concurrently, one column per task. Then each chunk fills its slice
  // and frees its builder on the same worker.
  const std::size_t n = row_at[n_chunks];
  std::vector<util::UnixSeconds> timestamp;
  std::vector<std::uint8_t> has_job;
  const std::function<void()> presize[] = {
      [&] { timestamp.resize(n); },
      [&] { has_job.resize(n); },
      [&] { t.record_id.resize(n); },
      [&] { t.message_code.resize(n); },
      [&] { t.severity_code.resize(n); },
      [&] { t.component_code.resize(n); },
      [&] { t.category_code.resize(n); },
      [&] { t.location.resize(n, topology::Location::rack(0, 0)); },
      [&] { t.job_id.resize(n); },
      [&] { t.text.resize(n, text_at[n_chunks]); }};
  util::run_parallel(std::size(presize), threads,
                     [&](std::size_t i) { presize[i](); });
  util::run_parallel(n_chunks, threads, [&](std::size_t ci) {
    RasTableBuilder& c = chunks[ci];
    const std::size_t at = row_at[ci];
    copy_slice(t.record_id, at, c.record_id_);
    copy_slice(timestamp, at, c.timestamp_);
    remap_slice(t.message_code, at, c.message_code_, message_remap[ci]);
    copy_slice(t.severity_code, at, c.severity_code_);
    copy_slice(t.component_code, at, c.component_code_);
    copy_slice(t.category_code, at, c.category_code_);
    copy_slice(t.location, at, c.location_);
    copy_slice(has_job, at, c.has_job_);
    copy_slice(t.job_id, at, c.job_id_);
    t.text.write_slice(at, text_at[ci], c.text_);
    c = RasTableBuilder(*c.config_);
  });

  const auto key_less = [&](std::size_t a, std::size_t b) {
    if (timestamp[a] != timestamp[b]) return timestamp[a] < timestamp[b];
    return t.record_id[a] < t.record_id[b];
  };
  bool sorted = true;
  for (std::size_t i = 1; i < n && sorted; ++i) sorted = !key_less(i, i - 1);
  if (!sorted) {
    const auto perm = sort_permutation(n, key_less);
    apply_permutation(t.record_id, perm);
    apply_permutation(timestamp, perm);
    apply_permutation(t.message_code, perm);
    apply_permutation(t.severity_code, perm);
    apply_permutation(t.component_code, perm);
    apply_permutation(t.category_code, perm);
    apply_permutation(t.location, perm);
    apply_permutation(has_job, perm);
    apply_permutation(t.job_id, perm);
    StringArena text;
    for (const std::size_t i : perm) text.push_back(t.text.view(i));
    t.text = std::move(text);
  }
  t.timestamp = TimestampColumn(std::move(timestamp));
  t.timestamp.seal();
  t.has_job.resize(n);
  for (auto& bits : t.severity_bits) bits.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (has_job[i]) t.has_job.set(i);
    t.severity_bits[t.severity_code[i]].set(i);
  }
  flush_build_metrics(n, t.bytes(), t.message_dict.size(), !sorted,
                      !t.timestamp.delta_encoded());
  return t;
}

// ---- TaskTableBuilder --------------------------------------------------

void TaskTableBuilder::reserve(std::size_t n) {
  task_id_.reserve(n);
  job_id_.reserve(n);
  sequence_.reserve(n);
  start_time_.reserve(n);
  runtime_seconds_.reserve(n);
  nodes_used_.reserve(n);
  ranks_per_node_.reserve(n);
  exit_code_.reserve(n);
  exit_signal_.reserve(n);
}

void TaskTableBuilder::add(const tasklog::TaskRecord& t) {
  runtime_seconds_.push_back(
      checked_u32_span(t.end_time - t.start_time, "task runtime"));
  task_id_.push_back(t.task_id);
  job_id_.push_back(t.job_id);
  sequence_.push_back(t.sequence);
  start_time_.push_back(t.start_time);
  nodes_used_.push_back(t.nodes_used);
  ranks_per_node_.push_back(t.ranks_per_node);
  exit_code_.push_back(t.exit_code);
  exit_signal_.push_back(t.exit_signal);
}

void TaskTableBuilder::add_csv_row(const util::FieldVec& row) {
  tasklog::parse_csv_row(row, scratch_);
  add(scratch_);
}

TaskTable TaskTableBuilder::merge(std::vector<TaskTableBuilder> chunks) {
  FAILMINE_TRACE_SPAN("columnar.build");
  TaskTable t;
  std::vector<util::UnixSeconds> start_time;
  if (!chunks.empty()) {
    TaskTableBuilder& first = chunks.front();
    t.task_id = std::move(first.task_id_);
    t.job_id = std::move(first.job_id_);
    t.sequence = std::move(first.sequence_);
    start_time = std::move(first.start_time_);
    t.runtime_seconds = std::move(first.runtime_seconds_);
    t.nodes_used = std::move(first.nodes_used_);
    t.ranks_per_node = std::move(first.ranks_per_node_);
    t.exit_code = std::move(first.exit_code_);
    t.exit_signal = std::move(first.exit_signal_);
    for (std::size_t ci = 1; ci < chunks.size(); ++ci) {
      TaskTableBuilder& c = chunks[ci];
      append_vec(t.task_id, c.task_id_);
      append_vec(t.job_id, c.job_id_);
      append_vec(t.sequence, c.sequence_);
      append_vec(start_time, c.start_time_);
      append_vec(t.runtime_seconds, c.runtime_seconds_);
      append_vec(t.nodes_used, c.nodes_used_);
      append_vec(t.ranks_per_node, c.ranks_per_node_);
      append_vec(t.exit_code, c.exit_code_);
      append_vec(t.exit_signal, c.exit_signal_);
    }
  }
  const std::size_t n = t.task_id.size();
  const auto key_less = [&](std::size_t a, std::size_t b) {
    if (t.job_id[a] != t.job_id[b]) return t.job_id[a] < t.job_id[b];
    return t.sequence[a] < t.sequence[b];
  };
  bool sorted = true;
  for (std::size_t i = 1; i < n && sorted; ++i) sorted = !key_less(i, i - 1);
  if (!sorted) {
    const auto perm = sort_permutation(n, key_less);
    apply_permutation(t.task_id, perm);
    apply_permutation(t.job_id, perm);
    apply_permutation(t.sequence, perm);
    apply_permutation(start_time, perm);
    apply_permutation(t.runtime_seconds, perm);
    apply_permutation(t.nodes_used, perm);
    apply_permutation(t.ranks_per_node, perm);
    apply_permutation(t.exit_code, perm);
    apply_permutation(t.exit_signal, perm);
  }
  t.start_time = TimestampColumn(std::move(start_time));
  t.start_time.seal();
  t.failed.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    if (t.exit_code[i] != 0 || t.exit_signal[i] != 0) t.failed.set(i);
  flush_build_metrics(n, t.bytes(), 0, !sorted,
                      !t.start_time.delta_encoded());
  return t;
}

// ---- IoTableBuilder ----------------------------------------------------

void IoTableBuilder::reserve(std::size_t n) {
  job_id_.reserve(n);
  bytes_read_.reserve(n);
  bytes_written_.reserve(n);
  read_time_seconds_.reserve(n);
  write_time_seconds_.reserve(n);
  files_accessed_.reserve(n);
  ranks_doing_io_.reserve(n);
}

void IoTableBuilder::add(const iolog::IoRecord& r) {
  job_id_.push_back(r.job_id);
  bytes_read_.push_back(r.bytes_read);
  bytes_written_.push_back(r.bytes_written);
  read_time_seconds_.push_back(r.read_time_seconds);
  write_time_seconds_.push_back(r.write_time_seconds);
  files_accessed_.push_back(r.files_accessed);
  ranks_doing_io_.push_back(r.ranks_doing_io);
}

void IoTableBuilder::add_csv_row(const util::FieldVec& row) {
  iolog::parse_csv_row(row, scratch_);
  add(scratch_);
}

IoTable IoTableBuilder::merge(std::vector<IoTableBuilder> chunks) {
  FAILMINE_TRACE_SPAN("columnar.build");
  IoTable t;
  if (!chunks.empty()) {
    IoTableBuilder& first = chunks.front();
    t.job_id = std::move(first.job_id_);
    t.bytes_read = std::move(first.bytes_read_);
    t.bytes_written = std::move(first.bytes_written_);
    t.read_time_seconds = std::move(first.read_time_seconds_);
    t.write_time_seconds = std::move(first.write_time_seconds_);
    t.files_accessed = std::move(first.files_accessed_);
    t.ranks_doing_io = std::move(first.ranks_doing_io_);
    for (std::size_t ci = 1; ci < chunks.size(); ++ci) {
      IoTableBuilder& c = chunks[ci];
      append_vec(t.job_id, c.job_id_);
      append_vec(t.bytes_read, c.bytes_read_);
      append_vec(t.bytes_written, c.bytes_written_);
      append_vec(t.read_time_seconds, c.read_time_seconds_);
      append_vec(t.write_time_seconds, c.write_time_seconds_);
      append_vec(t.files_accessed, c.files_accessed_);
      append_vec(t.ranks_doing_io, c.ranks_doing_io_);
    }
  }
  const std::size_t n = t.job_id.size();
  bool sorted = true;
  for (std::size_t i = 1; i < n && sorted; ++i)
    sorted = t.job_id[i - 1] <= t.job_id[i];
  if (!sorted) {
    const auto perm = sort_permutation(
        n, [&](std::size_t a, std::size_t b) { return t.job_id[a] < t.job_id[b]; });
    apply_permutation(t.job_id, perm);
    apply_permutation(t.bytes_read, perm);
    apply_permutation(t.bytes_written, perm);
    apply_permutation(t.read_time_seconds, perm);
    apply_permutation(t.write_time_seconds, perm);
    apply_permutation(t.files_accessed, perm);
    apply_permutation(t.ranks_doing_io, perm);
  }
  flush_build_metrics(n, t.bytes(), 0, !sorted, false);
  return t;
}

}  // namespace failmine::columnar
