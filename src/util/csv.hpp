// failmine/util/csv.hpp
//
// Small CSV layer shared by the four log libraries.
//
// The simulated logs are plain comma-separated files with a header row.
// Fields containing commas, quotes or newlines are quoted per RFC 4180.
// The reader is line-oriented (log records never span lines once quoted
// newlines are escaped by the writer, which the log libraries guarantee by
// sanitizing free-text fields).
//
// Two splitting APIs share one quote state machine:
//  * split_csv_line materializes std::string fields (the streaming
//    CsvReader path);
//  * split_csv_fields yields std::string_view fields into a caller-owned
//    FieldVec, copying bytes only for fields that need quote unescaping —
//    the allocation-free path of the parallel ingest engine
//    (ingest/loader.hpp).
//
// The ingest engine's scan fast path skips the state machine for a
// record with no '"' byte: ingest::CsvCursor finds the record's newline
// and the absence of quotes with memchr, and split_unquoted_csv_fields
// cuts it at every comma, again with memchr. Without a quote, a comma
// always ends a field and a newline always ends the record, so both
// paths give the same fields. Every record that contains a quote
// anywhere, quoted newlines and unterminated quotes included, falls back
// to the state machine; the engine counts those records in
// ingest.records_quoted.

#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace failmine::util {

/// Reusable list of zero-copy CSV fields. Each field is a string_view
/// pointing either into the line it was split from (fields that need no
/// unescaping — the overwhelming majority) or into an internal
/// scratch buffer (fields containing escaped quotes, whose bytes differ
/// from the raw input). Reusing one FieldVec across rows makes the
/// steady-state parse allocation-free: the ref vector and the scratch
/// buffer keep their capacity across clear().
///
/// Views are invalidated by the next split into the same FieldVec and by
/// the death of the line buffer they were parsed from.
class FieldVec {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::string_view operator[](std::size_t i) const {
    const Ref& r = refs_[i];
    if (r.len == 0) return {};
    return {(r.in_scratch ? scratch_.data() : base_) + r.begin, r.len};
  }

  void clear() {
    size_ = 0;
    scratch_.clear();
    base_ = nullptr;
  }

 private:
  friend void split_csv_fields(std::string_view line, FieldVec& out);
  friend void split_unquoted_csv_fields(std::string_view line, FieldVec& out);

  struct Ref {
    std::size_t begin = 0;
    std::size_t len = 0;
    bool in_scratch = false;
  };

  void push(Ref r) {
    if (size_ == refs_.size())
      refs_.push_back(r);
    else
      refs_[size_] = r;
    ++size_;
  }

  std::vector<Ref> refs_;
  std::size_t size_ = 0;
  std::string scratch_;
  const char* base_ = nullptr;
};

/// Splits one CSV line into fields, honouring RFC 4180 quoting.
/// Throws ParseError on unterminated quotes.
std::vector<std::string> split_csv_line(std::string_view line);

/// As above, but reuses `fields` (and each element's capacity) instead of
/// allocating a fresh vector per row — the CsvReader::next fast path.
void split_csv_line(std::string_view line, std::vector<std::string>& fields);

/// Zero-copy split: fields become string_views into `line` (or into
/// `out`'s scratch buffer for fields with escaped quotes). `line` may
/// contain quoted newlines — any byte inside quotes is field content.
/// Throws ParseError on unterminated quotes. Shares the quote state
/// machine with split_csv_line, so the two agree on every input.
void split_csv_fields(std::string_view line, FieldVec& out);

/// split_csv_fields for a line known to contain no '"': fields are the
/// views between commas, found with memchr. On such a line it gives the
/// same fields as split_csv_fields.
void split_unquoted_csv_fields(std::string_view line, FieldVec& out);

/// Quotes a field if (and only if) it needs quoting.
std::string escape_csv_field(std::string_view field);

/// Joins fields into one CSV line (no trailing newline).
std::string join_csv_line(const std::vector<std::string>& fields);

/// CSV rows built field by field with typed appends into one growable
/// byte buffer: integers through std::to_chars, timestamps through
/// util::append_timestamp, doubles through std::to_chars(fixed), text
/// through the one RFC 4180 escape routine that escape_csv_field shares.
/// No per-field string is made. The buffer holds whole rows (each ended
/// by '\n') followed by at most one unfinished row.
class CsvRowBuffer {
 public:
  /// Every row must have `arity` fields; `capacity` bytes are allocated
  /// up front.
  explicit CsvRowBuffer(std::size_t arity, std::size_t capacity = 0)
      : arity_(arity) {
    if (capacity > 0) grow(capacity);
  }

  // Each append adds one field to the unfinished row.

  /// A decimal integer, as std::to_string spells it.
  template <std::integral T>
  void integer(T value) {
    char* out = begin_field(kMaxIntegerChars);
    used_ = static_cast<std::size_t>(
        std::to_chars(out, out + kMaxIntegerChars, value).ptr - buf_.get());
  }

  /// "YYYY-MM-DD hh:mm:ss" (util::append_timestamp).
  void timestamp(UnixSeconds t);

  /// `value` with `precision` >= 0 digits after the point, as printf's
  /// "%.*f" spells it (std::to_chars in fixed format).
  void fixed(double value, int precision);

  /// Free text, quoted per RFC 4180 if it holds a comma, quote, CR or LF.
  void text(std::string_view field);

  /// A field of at most `max_chars` bytes that `format(char* out)` writes
  /// at `out`, returning the end; the bytes must need no quoting (e.g.
  /// topology::Location::append_to).
  template <class Format>
  void append(std::size_t max_chars, Format&& format) {
    char* out = begin_field(max_chars);
    used_ = static_cast<std::size_t>(format(out) - buf_.get());
  }

  /// Ends the unfinished row. Throws DomainError, and drops the row, if
  /// its field count differs from the arity.
  void end_row();

  /// The bytes of the whole rows.
  std::string_view rows() const { return {buf_.get(), row_start_}; }

  /// Drops the whole rows and keeps the unfinished one and the capacity.
  void clear_rows();

 private:
  // Enough for any 64-bit integer ("-9223372036854775808").
  static constexpr std::size_t kMaxIntegerChars = 20;

  /// Adds the separator of a new field and makes room for `max_chars`
  /// bytes after it; returns where the field's bytes go.
  char* begin_field(std::size_t max_chars) {
    if (capacity_ - used_ < max_chars + 1) grow(max_chars + 1);
    if (fields_++ > 0) buf_[used_++] = ',';
    return buf_.get() + used_;
  }

  void grow(std::size_t extra);

  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;       ///< bytes in buf_
  std::size_t row_start_ = 0;  ///< where the unfinished row begins
  std::size_t fields_ = 0;     ///< fields of the unfinished row
  std::size_t arity_;
};

/// Appends the fields of row `i` to a CsvRowBuffer (without ending it).
using CsvRowFormatter = std::function<void(CsvRowBuffer& row, std::size_t i)>;

/// CSV writer with a mandatory header row. write_rows formats a table on
/// all cores and writes it in row order; write_row writes one row of text
/// fields. A failed write is remembered and reported by close().
class CsvWriter {
 public:
  /// write_rows keeps about this many formatted bytes per worker in
  /// flight, in four ranges, each written with one write.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  /// Opens `path` for writing and writes the header. Throws DomainError
  /// on an empty header and IoError if the file cannot be opened.
  ///
  /// An existing regular file with one link that the process may write is
  /// replaced, not truncated: it is unlinked first, so the writer makes a
  /// new inode, owned by the process, with the mode 0666 & ~umask, and a
  /// reader that still holds the old file open keeps reading the old
  /// bytes. Anything else (a device such as /dev/full, a FIFO, a symlink,
  /// a file with a second hard link, a write-protected file, or a path
  /// whose unlink fails) is opened with O_TRUNC and written in place.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Closes the file if close() has not; a write error found here is
  /// dropped, so call close() to see it.
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends rows 0..n-1, row i formatted by format_row(row, i), which
  /// may run on any worker thread, concurrently for different rows. The
  /// rows are formatted in contiguous ranges on up to
  /// util::hardware_threads() workers, each into its own buffer, and
  /// written in row order while the next ranges are formatted, so the
  /// bytes are those of formatting every row in turn. Formatted bytes in
  /// flight stay near kBlockBytes per worker, whatever n is. Throws
  /// DomainError if a row's field count differs from the header's, or
  /// what format_row throws; the rows from the failing one on are then
  /// not written.
  void write_rows(std::size_t n, const CsvRowFormatter& format_row);

  /// Appends one record of text fields; must have the header's arity.
  void write_row(const std::vector<std::string>& fields);

  /// Closes the file. Throws IoError naming the path if a write or the
  /// close failed.
  void close();

  /// Rows of the write_rows and write_row calls that returned.
  std::size_t rows_written() const { return rows_; }

 private:
  /// Writes `bytes` unless an earlier write failed.
  void write_bytes(std::string_view bytes);

  std::string path_;
  int fd_ = -1;
  int error_ = 0;  ///< errno of the first failed write, 0 if none
  std::size_t arity_;
  std::size_t rows_ = 0;
};

namespace detail {

/// write_rows' engine, with the range length and the worker count given:
/// formats rows 0..n-1 in waves of 2 * workers ranges of `rows_per_range`
/// rows on `workers` threads, each range into its own buffer of
/// `range_capacity` bytes (grown if a range needs more), and passes the
/// ranges' bytes to `sink` in row order, one wave behind the formatting
/// and never from two threads at once.
void format_rows(std::size_t n, std::size_t arity, std::size_t rows_per_range,
                 std::size_t range_capacity, unsigned workers,
                 const CsvRowFormatter& format_row,
                 const std::function<void(std::string_view)>& sink);

}  // namespace detail

/// Streaming CSV reader that validates the header on open.
///
/// Every data row read increments the `parse.lines_total` counter in the
/// global obs::metrics() registry; rows that fail quoting or arity
/// validation increment `parse.lines_rejected` and emit a WARN log record
/// before the ParseError is thrown, so no malformed input vanishes
/// silently.
class CsvReader {
 public:
  /// Opens `path` and reads the header row. Throws IoError / ParseError.
  explicit CsvReader(const std::string& path);

  const std::vector<std::string>& header() const { return header_; }

  /// Reads the next record into `fields`, reusing its capacity. Returns
  /// false at end of file. Throws ParseError if a row's arity differs
  /// from the header's.
  bool next(std::vector<std::string>& fields);

  std::size_t rows_read() const { return rows_; }

 private:
  std::ifstream in_;
  std::vector<std::string> header_;
  std::size_t rows_ = 0;
  std::string path_;
  std::string line_;  ///< getline target, reused across rows
};

}  // namespace failmine::util
