// failmine/columnar/builder.hpp
//
// Per-chunk column builders and the deterministic chunk-order merge.
//
// A builder accumulates one ingest chunk's records as raw SoA vectors
// with chunk-local dictionaries; workers fill builders concurrently
// without sharing state. merge() then combines the chunk builders in
// file order into a sealed table from columnar/table.hpp: dictionary
// codes of every later chunk are remapped into the first chunk's
// dictionary (so the final code assignment equals a serial first-seen
// pass — see columnar/dictionary.hpp), the columns are concatenated,
// rows are put into the table's canonical order if the concatenation is
// not already sorted, timestamps are delta-sealed and the predicate
// bitmaps are built.
//
// The RAS merge, which carries the largest columns and the free-text
// column, runs in two phases:
//   1. Serial: fold the chunk message dictionaries (a few dozen entries)
//      in file order, and compute each chunk's row and text-byte offsets
//      in the merged table.
//   2. Parallel (util::run_parallel over the chunks, at the
//      load's thread count): each chunk remaps its message codes, copies
//      its columns and text into its own slice of the presized merged
//      columns and frees its builder.
// The canonical re-sort, the seal and the bitmap build then run on the
// merged columns as for the other tables, whose merges concatenate
// serially.
//
// add_csv_row() parses a raw ingest FieldVec straight into the columns
// through one reused scratch record (no per-row allocation once the
// string capacities warm up), which is what lets the columnar load path
// build tables with no extra pass over the file bytes.
//
// merge() runs under a "columnar.build" span and flushes the
// columnar.rows / columnar.bytes / columnar.dict_entries counters plus
// two fallback counters: columnar.merge_sorted (the chunks arrived out
// of canonical order, so the rows were permuted) and
// columnar.timestamps_plain (a timestamp column sealed as plain i64).
//
// Range contract: jobs and tasks store queue wait and runtime as u32
// seconds (the CSV validators already guarantee they are non-negative);
// a span over ~136 years throws DomainError instead of wrapping.

#pragma once

#include <cstdint>
#include <vector>

#include "columnar/table.hpp"
#include "topology/machine.hpp"
#include "util/csv.hpp"

namespace failmine::columnar {

class JobTableBuilder {
 public:
  void reserve(std::size_t n);
  void add(const joblog::JobRecord& job);
  /// Parses one CSV row (joblog column order) and adds it. Throws
  /// failmine::Error on invalid rows, like the row-path parser.
  void add_csv_row(const util::FieldVec& row);
  std::size_t rows() const { return job_id_.size(); }

  /// Combines chunk builders (file order) into one sealed table.
  static JobTable merge(std::vector<JobTableBuilder> chunks);

 private:
  std::vector<std::uint64_t> job_id_;
  std::vector<std::uint32_t> user_id_;
  std::vector<std::uint32_t> project_id_;
  std::vector<std::uint32_t> queue_code_;
  Dictionary queue_dict_;
  std::vector<util::UnixSeconds> start_time_;
  std::vector<std::uint32_t> wait_seconds_;
  std::vector<std::uint32_t> runtime_seconds_;
  std::vector<std::uint32_t> nodes_used_;
  std::vector<std::uint32_t> task_count_;
  std::vector<std::int64_t> requested_walltime_;
  std::vector<std::int32_t> exit_code_;
  std::vector<std::int32_t> exit_signal_;
  std::vector<std::uint8_t> exit_class_code_;
  std::vector<std::int32_t> partition_first_midplane_;
  joblog::JobRecord scratch_;
};

class RasTableBuilder {
 public:
  /// RAS rows validate locations against the machine config; the config
  /// must outlive the builder.
  explicit RasTableBuilder(const topology::MachineConfig& config)
      : config_(&config) {}

  void reserve(std::size_t n);
  void add(const raslog::RasEvent& event);
  /// Parses one CSV row (raslog column order) and adds it. The field
  /// parse order (and so the first thrown error) matches the row path.
  void add_csv_row(const util::FieldVec& row);
  std::size_t rows() const { return record_id_.size(); }

  /// Combines chunk builders (file order) into one sealed table; the
  /// per-chunk copy runs on up to `threads` workers.
  static RasTable merge(std::vector<RasTableBuilder> chunks,
                        unsigned threads = 1);

 private:
  const topology::MachineConfig* config_;
  std::vector<std::uint64_t> record_id_;
  std::vector<util::UnixSeconds> timestamp_;
  std::vector<std::uint32_t> message_code_;
  Dictionary message_dict_;
  std::vector<std::uint8_t> severity_code_;
  std::vector<std::uint8_t> component_code_;
  std::vector<std::uint8_t> category_code_;
  std::vector<topology::Location> location_;
  std::vector<std::uint8_t> has_job_;
  std::vector<std::uint64_t> job_id_;
  StringArena text_;
};

class TaskTableBuilder {
 public:
  void reserve(std::size_t n);
  void add(const tasklog::TaskRecord& task);
  void add_csv_row(const util::FieldVec& row);
  std::size_t rows() const { return task_id_.size(); }

  static TaskTable merge(std::vector<TaskTableBuilder> chunks);

 private:
  std::vector<std::uint64_t> task_id_;
  std::vector<std::uint64_t> job_id_;
  std::vector<std::uint32_t> sequence_;
  std::vector<util::UnixSeconds> start_time_;
  std::vector<std::uint32_t> runtime_seconds_;
  std::vector<std::uint32_t> nodes_used_;
  std::vector<std::uint32_t> ranks_per_node_;
  std::vector<std::int32_t> exit_code_;
  std::vector<std::int32_t> exit_signal_;
  tasklog::TaskRecord scratch_;
};

class IoTableBuilder {
 public:
  void reserve(std::size_t n);
  void add(const iolog::IoRecord& record);
  void add_csv_row(const util::FieldVec& row);
  std::size_t rows() const { return job_id_.size(); }

  static IoTable merge(std::vector<IoTableBuilder> chunks);

 private:
  std::vector<std::uint64_t> job_id_;
  std::vector<std::uint64_t> bytes_read_;
  std::vector<std::uint64_t> bytes_written_;
  std::vector<double> read_time_seconds_;
  std::vector<double> write_time_seconds_;
  std::vector<std::uint32_t> files_accessed_;
  std::vector<std::uint32_t> ranks_doing_io_;
  iolog::IoRecord scratch_;
};

}  // namespace failmine::columnar
