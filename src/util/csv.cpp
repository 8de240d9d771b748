#include "util/csv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace failmine::util {

namespace {

obs::Counter& lines_total_counter() {
  static obs::Counter& c = obs::metrics().counter("parse.lines_total");
  return c;
}

obs::Counter& lines_rejected_counter() {
  static obs::Counter& c = obs::metrics().counter("parse.lines_rejected");
  return c;
}

// The one RFC 4180 quote state machine, shared by split_csv_line and
// split_csv_fields. Emits each field as a sequence of byte segments, all
// pointing into `line`: unquoted runs, quoted runs, and 1-byte segments
// for escaped quotes ("" collapses to one '"', which is itself a byte of
// the input). Sink contract:
//   void begin_field();
//   void segment(const char* data, std::size_t len);
//   void end_field();
// Throws ParseError when the line ends inside an open quote.
template <class Sink>
void scan_csv_line(std::string_view line, Sink& sink) {
  const char* const base = line.data();
  bool in_quotes = false;
  std::size_t run_start = 0;
  std::size_t i = 0;
  sink.begin_field();
  const auto flush_run = [&](std::size_t end) {
    if (end > run_start) sink.segment(base + run_start, end - run_start);
  };
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        flush_run(i);
        if (i + 1 < line.size() && line[i + 1] == '"') {
          sink.segment(base + i, 1);  // escaped quote: keep one '"'
          ++i;
        } else {
          in_quotes = false;
        }
        run_start = i + 1;
      }
      ++i;
    } else if (c == '"') {
      flush_run(i);
      in_quotes = true;
      run_start = i + 1;
      ++i;
    } else if (c == ',') {
      flush_run(i);
      sink.end_field();
      sink.begin_field();
      run_start = i + 1;
      ++i;
    } else {
      ++i;
    }
  }
  if (in_quotes) throw ParseError("unterminated quote in CSV line");
  flush_run(i);
  sink.end_field();
}

/// Sink materializing std::string fields into a reused vector. Appends
/// whole segments (never per-character growth) and reuses each string's
/// capacity across rows.
class StringSink {
 public:
  explicit StringSink(std::vector<std::string>& out) : out_(out) {}

  void begin_field() {
    if (count_ == out_.size()) out_.emplace_back();
    current_ = &out_[count_];
    current_->clear();
  }
  void segment(const char* data, std::size_t len) {
    current_->append(data, len);
  }
  void end_field() { ++count_; }

  void finish() { out_.resize(count_); }

 private:
  std::vector<std::string>& out_;
  std::string* current_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace

void split_csv_line(std::string_view line, std::vector<std::string>& fields) {
  StringSink sink(fields);
  scan_csv_line(line, sink);
  sink.finish();
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  // One comma count up front sizes the vector for the common case (quoted
  // commas over-reserve slightly; harmless).
  fields.reserve(
      static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1);
  split_csv_line(line, fields);
  return fields;
}

void split_csv_fields(std::string_view line, FieldVec& out) {
  out.clear();
  out.base_ = line.data();

  // Sink recording zero-copy refs. A field made of one contiguous segment
  // stays a view into `line`; multi-segment fields (escaped quotes, or
  // text both inside and outside quotes) are concatenated into the
  // FieldVec's scratch buffer. Refs store offsets, not pointers, so
  // scratch growth cannot dangle them.
  struct ViewSink {
    FieldVec& out;
    const char* base;
    std::size_t nsegs = 0;
    const char* first_data = nullptr;
    std::size_t first_len = 0;
    std::size_t scratch_start = 0;

    void begin_field() { nsegs = 0; }
    void segment(const char* data, std::size_t len) {
      if (nsegs == 0) {
        first_data = data;
        first_len = len;
      } else {
        if (nsegs == 1) {
          scratch_start = out.scratch_.size();
          out.scratch_.append(first_data, first_len);
        }
        out.scratch_.append(data, len);
      }
      ++nsegs;
    }
    void end_field() {
      FieldVec::Ref r;
      if (nsegs <= 1) {
        r.begin = nsegs == 0 ? 0
                             : static_cast<std::size_t>(first_data - base);
        r.len = nsegs == 0 ? 0 : first_len;
        r.in_scratch = false;
      } else {
        r.begin = scratch_start;
        r.len = out.scratch_.size() - scratch_start;
        r.in_scratch = true;
      }
      out.push(r);
    }
  } sink{out, line.data()};

  scan_csv_line(line, sink);
}

void split_unquoted_csv_fields(std::string_view line, FieldVec& out) {
  out.clear();
  out.base_ = line.data();
  for (std::size_t begin = 0;;) {
    const std::size_t comma = line.find(',', begin);  // memchr
    const std::size_t end = std::min(comma, line.size());
    out.push({begin, end - begin, false});
    if (comma == std::string_view::npos) return;
    begin = comma + 1;
  }
}

namespace {

// The one RFC 4180 escape routine: writes `field` at `out`, which has
// room for 2 * field.size() + 2 bytes, quoted if (and only if) it holds a
// comma, quote, CR or LF, and returns the end. A plain byte loop tests
// the field: string_view::find_first_of calls memchr once per byte.
char* append_csv_field(char* out, std::string_view field) {
  bool needs_quoting = false;
  for (const char c : field)
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  if (!needs_quoting) {
    if (!field.empty()) std::memcpy(out, field.data(), field.size());
    return out + field.size();
  }
  *out++ = '"';
  for (const char c : field) {
    if (c == '"') *out++ = '"';
    *out++ = c;
  }
  *out++ = '"';
  return out;
}

}  // namespace

std::string escape_csv_field(std::string_view field) {
  std::string out(2 * field.size() + 2, '\0');
  out.resize(static_cast<std::size_t>(append_csv_field(out.data(), field) -
                                      out.data()));
  return out;
}

std::string join_csv_line(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += escape_csv_field(fields[i]);
  }
  return line;
}

void CsvRowBuffer::timestamp(UnixSeconds t) {
  char* out = begin_field(kMaxTimestampChars);
  used_ = static_cast<std::size_t>(append_timestamp(out, t) - buf_.get());
}

void CsvRowBuffer::fixed(double value, int precision) {
  if (precision < 0) throw DomainError("CSV fixed precision must be >= 0");
  // The integer part of a finite double has at most 309 digits.
  const std::size_t max_chars = 312 + static_cast<std::size_t>(precision);
  char* out = begin_field(max_chars);
  used_ = static_cast<std::size_t>(
      std::to_chars(out, out + max_chars, value, std::chars_format::fixed,
                    precision)
          .ptr -
      buf_.get());
}

void CsvRowBuffer::text(std::string_view field) {
  char* out = begin_field(2 * field.size() + 2);
  used_ = static_cast<std::size_t>(append_csv_field(out, field) - buf_.get());
}

void CsvRowBuffer::end_row() {
  if (fields_ != arity_) {
    const std::size_t fields = fields_;
    used_ = row_start_;
    fields_ = 0;
    throw DomainError("CSV row arity " + std::to_string(fields) +
                      " != header arity " + std::to_string(arity_));
  }
  if (used_ == capacity_) grow(1);
  buf_[used_++] = '\n';
  row_start_ = used_;
  fields_ = 0;
}

void CsvRowBuffer::clear_rows() {
  const std::size_t tail = used_ - row_start_;
  if (tail > 0) std::memmove(buf_.get(), buf_.get() + row_start_, tail);
  used_ = tail;
  row_start_ = 0;
}

void CsvRowBuffer::grow(std::size_t extra) {
  const std::size_t capacity = std::max(used_ + extra, 2 * capacity_);
  auto buf = std::make_unique_for_overwrite<char[]>(capacity);
  if (used_ > 0) std::memcpy(buf.get(), buf_.get(), used_);
  buf_ = std::move(buf);
  capacity_ = capacity;
}

namespace detail {

void format_rows(std::size_t n, std::size_t arity, std::size_t rows_per_range,
                 std::size_t range_capacity, unsigned workers,
                 const CsvRowFormatter& format_row,
                 const std::function<void(std::string_view)>& sink) {
  if (n == 0) return;
  rows_per_range = std::max<std::size_t>(1, rows_per_range);
  const std::size_t n_ranges = (n + rows_per_range - 1) / rows_per_range;
  const std::size_t wave =
      std::clamp<std::size_t>(2 * std::size_t{workers}, 1, n_ranges);
  // Range k is formatted into buffer k % (2 * wave). While the workers
  // format one wave, one more task writes the wave before it, so the
  // file is written while rows are formatted. Two ranges per worker even
  // out ranges of unequal cost. The calling thread allocates the buffers,
  // and each keeps its capacity from wave to wave. A buffer has its own
  // cache lines: its worker updates the buffer's sizes at every field,
  // and buffers sharing a line made four workers no faster than one.
  struct alignas(64) Range {
    CsvRowBuffer rows;
  };
  std::vector<Range> ranges;
  ranges.reserve(2 * wave);
  for (std::size_t r = 0; r < 2 * wave; ++r)
    ranges.push_back({CsvRowBuffer(arity, range_capacity)});
  const auto write = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      CsvRowBuffer& rows = ranges[k % (2 * wave)].rows;
      sink(rows.rows());
      rows.clear_rows();
    }
  };

  std::size_t written = 0;  ///< the ranges before it went to the sink
  for (std::size_t first = 0; first < n_ranges; first += wave) {
    const std::size_t count = std::min(wave, n_ranges - first);
    const unsigned writer = written < first ? 1 : 0;
    util::run_parallel(count + writer, workers + writer, [&](std::size_t t) {
      if (t < writer) return write(written, first);
      const std::size_t k = first + t - writer;
      CsvRowBuffer& out = ranges[k % (2 * wave)].rows;
      const std::size_t end = std::min(n, (k + 1) * rows_per_range);
      for (std::size_t i = k * rows_per_range; i < end; ++i) {
        format_row(out, i);
        out.end_row();
      }
    });
    written = first;
  }
  write(written, n_ranges);
}

}  // namespace detail

namespace {

/// Unlinks `path` if it names a regular file with one link that the
/// process may write, so that the open after it creates a new inode:
/// truncating a file just written waits for its writeback on ext4
/// (auto_da_alloc), while unlinking it does not. Devices, FIFOs,
/// symlinks, files with a second hard link and failed unlinks are left
/// to the O_TRUNC open.
void unlink_if_replaceable(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) return;
  if (!S_ISREG(st.st_mode) || st.st_nlink != 1) return;
  if (::faccessat(AT_FDCWD, path.c_str(), W_OK, AT_EACCESS) != 0) return;
  ::unlink(path.c_str());
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), arity_(header.size()) {
  if (header.empty()) throw DomainError("CSV header must not be empty");
  unlink_if_replaceable(path);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) throw IoError("cannot open for writing: " + path);
  CsvRowBuffer line(arity_);
  for (const auto& name : header) line.text(name);
  line.end_row();
  write_bytes(line.rows());
}

CsvWriter::~CsvWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void CsvWriter::write_rows(std::size_t n, const CsvRowFormatter& format_row) {
  if (n == 0) return;
  // Ranges of about a quarter block, sized from the first rows, which
  // also meet the arity check before any row is written: small enough
  // that the first write starts soon and a file of a few MB still keeps
  // every worker busy.
  CsvRowBuffer sample(arity_);
  const std::size_t sample_rows = std::min<std::size_t>(n, 64);
  for (std::size_t i = 0; i < sample_rows; ++i) {
    format_row(sample, i);
    sample.end_row();
  }
  const std::size_t rows_per_range =
      kBlockBytes / 4 * sample_rows / sample.rows().size();
  const std::size_t range_bytes =
      std::min(n, rows_per_range) * sample.rows().size() / sample_rows;
  detail::format_rows(
      n, arity_, rows_per_range, range_bytes + range_bytes / 8,
      util::hardware_threads(), format_row,
      [this](std::string_view bytes) { write_bytes(bytes); });
  rows_ += n;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  write_rows(1, [&fields](CsvRowBuffer& row, std::size_t) {
    for (const auto& field : fields) row.text(field);
  });
}

void CsvWriter::close() {
  if (fd_ < 0) return;
  if (::close(fd_) != 0 && error_ == 0) error_ = errno;
  fd_ = -1;
  if (error_ != 0)
    throw IoError("cannot write " + path_ + ": " + std::strerror(error_));
}

void CsvWriter::write_bytes(std::string_view bytes) {
  // After a failed write nothing more reaches the file; close() reports
  // the first error.
  for (std::size_t done = 0; error_ == 0 && done < bytes.size();) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n > 0)
      done += static_cast<std::size_t>(n);
    else if (n < 0 && errno == EINTR)
      continue;
    else
      error_ = n < 0 ? errno : EIO;
  }
}

CsvReader::CsvReader(const std::string& path) : in_(path), path_(path) {
  if (!in_) throw IoError("cannot open for reading: " + path);
  std::string line;
  if (!std::getline(in_, line)) throw ParseError("empty CSV file: " + path);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  header_ = split_csv_line(line);
}

bool CsvReader::next(std::vector<std::string>& fields) {
  if (!std::getline(in_, line_)) return false;
  lines_total_counter().add();
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  try {
    split_csv_line(line_, fields);
  } catch (const ParseError&) {
    lines_rejected_counter().add();
    obs::logger().warn("parse.line_rejected",
                       {{"file", path_},
                        {"row", rows_ + 2},
                        {"reason", "unterminated quote"}});
    throw;
  }
  if (fields.size() != header_.size()) {
    lines_rejected_counter().add();
    obs::logger().warn("parse.line_rejected",
                       {{"file", path_},
                        {"row", rows_ + 2},
                        {"reason", "arity mismatch"},
                        {"fields", fields.size()},
                        {"expected", header_.size()}});
    throw ParseError("row " + std::to_string(rows_ + 2) + " of " + path_ +
                     " has " + std::to_string(fields.size()) +
                     " fields, expected " + std::to_string(header_.size()));
  }
  ++rows_;
  return true;
}

}  // namespace failmine::util
