// failmine/columnar/table.hpp
//
// Sealed structure-of-arrays tables for the four log types.
//
// Each table stores one dense column per record field: dictionary codes
// for low-cardinality strings (columnar/dictionary.hpp), delta-compressed
// timestamps (columnar/column.hpp), u8 codes for small enums, parsed
// 7-byte RAS locations, and precomputed bitmaps (columnar/bitmap.hpp)
// for the hot predicates. Rows follow the same order invariants as the
// AoS containers — jobs by (start_time, job_id), RAS by (timestamp,
// record_id), tasks by (job_id, sequence), I/O by job_id — so a forward
// column scan visits records in exactly the order the row-path analyses
// do, so the shared accumulators
// (analysis/accumulators.hpp) see the same rows in the same order from
// either representation.
//
// Timestamps are normalized at build time: a job stores start_time plus
// u32 wait/runtime (submit = start - wait, end = start + runtime; the
// CSV parsers already enforce submit <= start <= end), so the E02-class
// scans read 4 bytes of runtime instead of two 8-byte absolute times.
//
// Tables are produced by the builders in columnar/builder.hpp and are
// immutable afterwards. row(i) materializes one AoS record for
// interop/spot checks; bulk work should stay on the columns.

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "columnar/bitmap.hpp"
#include "columnar/column.hpp"
#include "columnar/dictionary.hpp"
#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "tasklog/task.hpp"
#include "topology/location.hpp"

namespace failmine::columnar {

/// Concatenated variable-length strings: offsets[i]..offsets[i+1] into
/// one byte arena. Used for the RAS free-text column, which is too
/// high-cardinality to dictionary-encode.
class StringArena {
 public:
  void push_back(std::string_view s) {
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    offsets_.push_back(bytes_.size());
  }

  /// Sizes an empty arena to `rows` strings over `text_bytes` bytes, to
  /// be filled by write_slice().
  void resize(std::size_t rows, std::size_t text_bytes) {
    bytes_.resize(text_bytes);
    offsets_.resize(rows + 1);
  }

  /// Copies `other` into strings [row, row + other.size()) and bytes
  /// [byte, byte + other.text_bytes()) of a resized arena. Calls that
  /// write disjoint slices may run concurrently.
  void write_slice(std::size_t row, std::size_t byte,
                   const StringArena& other) {
    std::copy(other.bytes_.begin(), other.bytes_.end(),
              bytes_.begin() + static_cast<std::ptrdiff_t>(byte));
    for (std::size_t i = 0; i < other.size(); ++i)
      offsets_[row + 1 + i] = byte + other.offsets_[i + 1];
  }

  std::string_view view(std::size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  std::size_t size() const { return offsets_.size() - 1; }
  std::size_t text_bytes() const { return bytes_.size(); }

  std::size_t bytes() const {
    return bytes_.capacity() + offsets_.capacity() * sizeof(std::size_t);
  }

 private:
  std::vector<char> bytes_;
  std::vector<std::size_t> offsets_{0};
};

/// SoA job log. Order: (start_time, job_id) ascending.
struct JobTable {
  std::vector<std::uint64_t> job_id;
  std::vector<std::uint32_t> user_id;
  std::vector<std::uint32_t> project_id;
  std::vector<std::uint32_t> queue_code;
  Dictionary queue_dict;
  TimestampColumn start_time;
  std::vector<std::uint32_t> wait_seconds;     ///< start - submit
  std::vector<std::uint32_t> runtime_seconds;  ///< end - start
  std::vector<std::uint32_t> nodes_used;
  std::vector<std::uint32_t> task_count;
  std::vector<std::int64_t> requested_walltime;
  std::vector<std::int32_t> exit_code;
  std::vector<std::int32_t> exit_signal;
  std::vector<std::uint8_t> exit_class_code;  ///< joblog::ExitClass
  std::vector<std::int32_t> partition_first_midplane;
  Bitmap failed;  ///< is_failure(exit_class)

  std::size_t rows() const { return job_id.size(); }
  joblog::JobRecord row(std::size_t i) const;
  /// All rows in table order (one linear timestamp decode, unlike
  /// repeated row(i) calls on a delta-encoded column).
  std::vector<joblog::JobRecord> to_records() const;
  std::size_t bytes() const;
};

/// SoA RAS log. Order: (timestamp, record_id) ascending.
struct RasTable {
  std::vector<std::uint64_t> record_id;
  TimestampColumn timestamp;
  std::vector<std::uint32_t> message_code;
  Dictionary message_dict;
  std::vector<std::uint8_t> severity_code;   ///< raslog::Severity
  std::vector<std::uint8_t> component_code;  ///< raslog::Component
  std::vector<std::uint8_t> category_code;   ///< raslog::Category
  /// Parsed per row: a 7-byte Location costs less to store and to parse
  /// than a dictionary probe of its ~97 k distinct strings.
  std::vector<topology::Location> location;
  Bitmap has_job;
  std::vector<std::uint64_t> job_id;  ///< 0 where has_job is clear
  StringArena text;
  std::array<Bitmap, 3> severity_bits;  ///< INFO / WARN / FATAL rows

  std::size_t rows() const { return record_id.size(); }
  raslog::RasEvent row(std::size_t i) const;
  std::vector<raslog::RasEvent> to_records() const;
  std::size_t bytes() const;
};

/// SoA task log. Order: (job_id, sequence) ascending.
struct TaskTable {
  std::vector<std::uint64_t> task_id;
  std::vector<std::uint64_t> job_id;
  std::vector<std::uint32_t> sequence;
  TimestampColumn start_time;  ///< plain (rows are job-ordered, not time-ordered)
  std::vector<std::uint32_t> runtime_seconds;  ///< end - start
  std::vector<std::uint32_t> nodes_used;
  std::vector<std::uint32_t> ranks_per_node;
  std::vector<std::int32_t> exit_code;
  std::vector<std::int32_t> exit_signal;
  Bitmap failed;  ///< exit_code != 0 || exit_signal != 0

  std::size_t rows() const { return task_id.size(); }
  tasklog::TaskRecord row(std::size_t i) const;
  std::vector<tasklog::TaskRecord> to_records() const;
  std::size_t bytes() const;
};

/// SoA I/O log. Order: job_id ascending.
struct IoTable {
  std::vector<std::uint64_t> job_id;
  std::vector<std::uint64_t> bytes_read;
  std::vector<std::uint64_t> bytes_written;
  std::vector<double> read_time_seconds;
  std::vector<double> write_time_seconds;
  std::vector<std::uint32_t> files_accessed;
  std::vector<std::uint32_t> ranks_doing_io;

  std::size_t rows() const { return job_id.size(); }
  iolog::IoRecord row(std::size_t i) const;
  std::vector<iolog::IoRecord> to_records() const;
  std::size_t bytes() const;
};

/// The four columnar tables of one dataset.
struct ColumnarDataset {
  JobTable jobs;
  TaskTable tasks;
  RasTable ras;
  IoTable io;

  std::size_t rows() const {
    return jobs.rows() + tasks.rows() + ras.rows() + io.rows();
  }
  std::size_t bytes() const {
    return jobs.bytes() + tasks.bytes() + ras.bytes() + io.bytes();
  }
};

}  // namespace failmine::columnar
