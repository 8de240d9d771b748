#include "raslog/event.hpp"

#include <algorithm>
#include <array>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::raslog {

const std::vector<std::string>& ras_csv_header() {
  static const std::vector<std::string> header = {
      "record_id", "timestamp", "message_id", "severity", "component",
      "category",  "location",  "job_id",     "text"};
  return header;
}

RasLog::RasLog(std::vector<RasEvent> events) : events_(std::move(events)) {
  finalize();
}

void RasLog::append(RasEvent event) { events_.push_back(std::move(event)); }

void RasLog::finalize() {
  const auto less = [](const RasEvent& a, const RasEvent& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.record_id < b.record_id;
  };
  if (!std::is_sorted(events_.begin(), events_.end(), less))
    std::stable_sort(events_.begin(), events_.end(), less);
}

std::vector<RasEvent> RasLog::filter_severity(Severity severity) const {
  std::vector<RasEvent> out;
  for (const auto& e : events_)
    if (e.severity == severity) out.push_back(e);
  return out;
}

std::vector<RasEvent> RasLog::filter_time(util::UnixSeconds begin,
                                          util::UnixSeconds end) const {
  std::vector<RasEvent> out;
  for (const auto& e : events_)
    if (e.timestamp >= begin && e.timestamp < end) out.push_back(e);
  return out;
}

std::array<std::uint64_t, 3> RasLog::severity_counts() const {
  std::array<std::uint64_t, 3> counts{};
  for (const auto& e : events_) ++counts[static_cast<std::size_t>(e.severity)];
  return counts;
}

void RasLog::write_csv(const std::string& path) const {
  FAILMINE_TRACE_SPAN("raslog.write_csv");
  util::CsvWriter writer(path, ras_csv_header());
  writer.write_rows(events_.size(), [this](util::CsvRowBuffer& row,
                                           std::size_t i) {
    const RasEvent& e = events_[i];
    row.integer(e.record_id);
    row.timestamp(e.timestamp);
    row.text(e.message_id);
    row.text(severity_token(e.severity));
    row.text(component_token(e.component));
    row.text(category_token(e.category));
    row.append(topology::Location::kMaxChars,
               [&e](char* out) { return e.location.append_to(out); });
    if (e.job_id)
      row.integer(*e.job_id);
    else
      row.text({});
    row.text(e.text);
  });
  writer.close();
}

namespace {

// Row is std::vector<std::string> (serial reader) or util::FieldVec
// (ingest engine); both index to something convertible to string_view.
template <class Row>
void parse_row_into(const Row& row, const topology::MachineConfig& config,
                    RasEvent& e) {
  e.record_id = util::parse_uint(row[0]);
  e.timestamp = util::parse_timestamp(row[1]);
  e.message_id = std::string_view(row[2]);
  e.severity = severity_from_name(row[3]);
  e.component = component_from_name(row[4]);
  e.category = category_from_name(row[5]);
  e.location = topology::Location::parse(row[6], config);
  if (!row[7].empty())
    e.job_id = util::parse_uint(row[7]);
  else
    e.job_id.reset();
  e.text = std::string_view(row[8]);
}

template <class Row>
raslog::RasEvent parse_row(const Row& row,
                           const topology::MachineConfig& config) {
  RasEvent e;
  parse_row_into(row, config, e);
  return e;
}

}  // namespace

void parse_csv_row(const util::FieldVec& row,
                   const topology::MachineConfig& config, RasEvent& out) {
  parse_row_into(row, config, out);
}

RasLog RasLog::read_csv(const std::string& path,
                        const topology::MachineConfig& config,
                        const ingest::LoadOptions& options,
                        ingest::Engine engine) {
  if (ingest::use_serial_reader(options, engine)) {
    std::vector<RasEvent> events;
    for_each_csv(path, config, [&](const RasEvent& e) {
      events.push_back(e);
      return true;
    });
    return RasLog(std::move(events));
  }
  FAILMINE_TRACE_SPAN("raslog.read_csv");
  return RasLog(ingest::load_csv<RasEvent>(
      path, ras_csv_header(), "raslog", "RAS log", "parse.raslog.records",
      [&config](const util::FieldVec& row) { return parse_row(row, config); },
      options));
}

void RasLog::for_each_csv(const std::string& path,
                          const topology::MachineConfig& config,
                          const std::function<bool(const RasEvent&)>& callback) {
  FAILMINE_TRACE_SPAN("raslog.read_csv");
  util::CsvReader reader(path);
  if (reader.header() != ras_csv_header())
    throw failmine::ParseError("unexpected RAS log header in " + path);
  obs::Counter& records = obs::metrics().counter("parse.raslog.records");
  std::vector<std::string> row;
  while (reader.next(row)) {
    RasEvent e;
    try {
      e = parse_row(row, config);
    } catch (const failmine::Error& err) {
      obs::metrics().counter("parse.lines_rejected").add();
      obs::logger().warn("parse.record_rejected",
                         {{"source", "raslog"},
                          {"file", path},
                          {"row", reader.rows_read() + 1},
                          {"error", err.what()}});
      throw;
    }
    records.add();
    if (!callback(e)) break;
  }
}

}  // namespace failmine::raslog
