#include "iolog/io_record.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::iolog {

const std::vector<std::string>& io_csv_header() {
  static const std::vector<std::string> header = {
      "job_id",        "bytes_read",        "bytes_written",
      "read_time_s",   "write_time_s",      "files_accessed",
      "ranks_doing_io"};
  return header;
}

IoLog::IoLog(std::vector<IoRecord> records) : records_(std::move(records)) {
  finalize();
}

void IoLog::append(IoRecord record) { records_.push_back(record); }

void IoLog::finalize() {
  const auto less = [](const IoRecord& a, const IoRecord& b) {
    return a.job_id < b.job_id;
  };
  if (!std::is_sorted(records_.begin(), records_.end(), less))
    std::stable_sort(records_.begin(), records_.end(), less);
  index_.clear();
  index_.reserve(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(records_[i].job_id, i);
    if (!inserted)
      throw failmine::DomainError("duplicate I/O record for job " +
                                  std::to_string(records_[i].job_id));
  }
}

bool IoLog::contains(std::uint64_t job_id) const { return index_.contains(job_id); }

const IoRecord& IoLog::by_job(std::uint64_t job_id) const {
  const auto it = index_.find(job_id);
  if (it == index_.end())
    throw failmine::DomainError("no I/O record for job " + std::to_string(job_id));
  return records_[it->second];
}

void IoLog::write_csv(const std::string& path) const {
  FAILMINE_TRACE_SPAN("iolog.write_csv");
  util::CsvWriter writer(path, io_csv_header());
  writer.write_rows(records_.size(), [this](util::CsvRowBuffer& row,
                                            std::size_t i) {
    const IoRecord& r = records_[i];
    row.integer(r.job_id);
    row.integer(r.bytes_read);
    row.integer(r.bytes_written);
    row.fixed(r.read_time_seconds, 3);
    row.fixed(r.write_time_seconds, 3);
    row.integer(r.files_accessed);
    row.integer(r.ranks_doing_io);
  });
  writer.close();
}

namespace {

// Row is std::vector<std::string> (serial reader) or util::FieldVec
// (ingest engine); both index to something convertible to string_view.
template <class Row>
void parse_row_into(const Row& row, IoRecord& r) {
  r.job_id = util::parse_uint(row[0]);
  r.bytes_read = util::parse_uint(row[1]);
  r.bytes_written = util::parse_uint(row[2]);
  r.read_time_seconds = util::parse_double(row[3]);
  r.write_time_seconds = util::parse_double(row[4]);
  r.files_accessed = util::parse_u32(row[5]);
  r.ranks_doing_io = util::parse_u32(row[6]);
}

template <class Row>
iolog::IoRecord parse_row(const Row& row) {
  IoRecord r;
  parse_row_into(row, r);
  return r;
}

}  // namespace

void parse_csv_row(const util::FieldVec& row, IoRecord& out) {
  parse_row_into(row, out);
}

IoLog IoLog::read_csv(const std::string& path,
                      const ingest::LoadOptions& options,
                      ingest::Engine engine) {
  FAILMINE_TRACE_SPAN("iolog.read_csv");
  if (!ingest::use_serial_reader(options, engine)) {
    return IoLog(ingest::load_csv<IoRecord>(
        path, io_csv_header(), "iolog", "I/O log", "parse.iolog.records",
        [](const util::FieldVec& row) { return parse_row(row); }, options));
  }
  util::CsvReader reader(path);
  if (reader.header() != io_csv_header())
    throw failmine::ParseError("unexpected I/O log header in " + path);
  obs::Counter& records_counter = obs::metrics().counter("parse.iolog.records");
  std::vector<IoRecord> records;
  std::vector<std::string> row;
  while (reader.next(row)) {
    try {
      records.push_back(parse_row(row));
    } catch (const failmine::Error& e) {
      obs::metrics().counter("parse.lines_rejected").add();
      obs::logger().warn("parse.record_rejected",
                         {{"source", "iolog"},
                          {"file", path},
                          {"row", reader.rows_read() + 1},
                          {"error", e.what()}});
      throw;
    }
    records_counter.add();
  }
  return IoLog(std::move(records));
}

}  // namespace failmine::iolog
