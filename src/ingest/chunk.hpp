// failmine/ingest/chunk.hpp
//
// Quote-aware chunking of a CSV byte range for parallel parsing.
//
// plan_chunks cuts a buffer of CSV records into roughly equal pieces that
// each start and end on a *record* boundary — a newline outside quotes.
// A naive newline split would shear records in half whenever a quoted
// field contains '\n'; resolving a candidate boundary therefore needs the
// quote parity (inside/outside a quoted field) at that offset. Because
// every '"' byte toggles the RFC 4180 state machine, parity at any offset
// is just the cumulative count of quote bytes before it. The candidates
// sit at multiples of a nominal chunk size, so the ingest workers count
// the quotes of each nominal segment concurrently (std::count, no
// per-byte state machine) and a serial prefix pass over the segment
// parities yields the parity at every candidate. From each candidate we
// then scan forward (with the known parity) to the first
// record-terminating newline. The plan does not depend on the thread
// count.
//
// CsvCursor iterates the records inside one chunk: it yields each record
// as a string_view with the terminating '\n' (and a trailing '\r', for
// CRLF input) stripped, treating newlines inside quotes as field content.
// Concatenating the cursors of all chunks in order visits exactly the
// records of the whole buffer, in order — the invariant the parallel
// loader's determinism rests on. next(FieldVec&) also splits the record;
// a record without a '"' takes the memchr fast path described in
// util/csv.hpp.

#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

#include "util/csv.hpp"

namespace failmine::ingest {

/// One newline-aligned, quote-balanced piece of a CSV buffer.
struct Chunk {
  std::string_view data;   ///< whole records, including their terminators
  std::size_t index = 0;   ///< position in file order
};

/// Default minimum chunk size: below this, extra chunks cost more in
/// scheduling than they win in parallelism.
inline constexpr std::size_t kDefaultMinChunkBytes = 64 * 1024;

/// Splits `data` (zero or more CSV records, no header) into at most
/// `target_chunks` record-aligned chunks of at least `min_chunk_bytes`
/// each (except possibly the last). The concatenation of the returned
/// chunks is exactly `data`. An empty input yields no chunks. The quote
/// counting runs on up to `threads` workers; the plan is the same for
/// any thread count.
std::vector<Chunk> plan_chunks(std::string_view data,
                               std::size_t target_chunks,
                               std::size_t min_chunk_bytes =
                                   kDefaultMinChunkBytes,
                               unsigned threads = 1);

/// Iterates records in a chunk (see file comment for the contract).
class CsvCursor {
 public:
  explicit CsvCursor(std::string_view data) : data_(data) {}

  /// Advances to the next record; false at end of chunk. `record` gets
  /// the record's text without its line terminator. A record whose
  /// quotes never close runs to the end of the chunk (split_csv_fields
  /// then reports the unterminated quote).
  bool next(std::string_view& record) {
    if (pos_ >= data_.size()) return false;
    cut(record);
    return true;
  }

  /// Advances to the next record and splits it into `fields`; false at
  /// end of chunk. Throws ParseError for a record whose quotes never
  /// close; the cursor has already moved past that record.
  bool next(util::FieldVec& fields) {
    if (pos_ >= data_.size()) return false;
    std::string_view record;
    if (cut(record))
      util::split_unquoted_csv_fields(record, fields);
    else
      util::split_csv_fields(record, fields);
    return true;
  }

  /// Records cut so far that contain a '"' and so took the state machine.
  std::size_t quoted_records() const { return quoted_; }

 private:
  /// Cuts the record at pos_ and moves past its terminator. Returns true
  /// when the record contains no quote. Both find() calls are memchr.
  bool cut(std::string_view& record) {
    const std::size_t start = pos_;
    std::size_t end = std::min(data_.find('\n', start), data_.size());
    const std::size_t quote = data_.substr(start, end - start).find('"');
    if (quote != std::string_view::npos) {
      // Quote-aware cut from the first quote (the bytes before it hold
      // neither a quote nor a newline): a newline inside quotes is field
      // content.
      ++quoted_;
      bool in_quotes = false;
      for (end = start + quote; end < data_.size(); ++end) {
        if (data_[end] == '"')
          in_quotes = !in_quotes;
        else if (data_[end] == '\n' && !in_quotes)
          break;
      }
    }
    pos_ = end < data_.size() ? end + 1 : end;  // consume the '\n', if any
    if (end > start && data_[end - 1] == '\r') --end;
    record = data_.substr(start, end - start);
    return quote == std::string_view::npos;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::size_t quoted_ = 0;
};

}  // namespace failmine::ingest
