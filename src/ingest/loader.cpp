#include "ingest/loader.hpp"

#include <algorithm>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace failmine::ingest {

unsigned effective_threads(const LoadOptions& options) {
  return options.threads != 0 ? options.threads : util::hardware_threads();
}

bool use_serial_reader(const LoadOptions& options, Engine engine) {
  if (engine == Engine::kSerial) return true;
  if (engine == Engine::kMapped) return false;
  return options.threads == 1;
}

namespace detail {

LoadPlan open_and_plan(const std::string& path,
                       const std::vector<std::string>& expected_header,
                       const std::string& header_label,
                       const LoadOptions& options) {
  LoadPlan plan{MappedFile(path, options.force_stream)};
  const std::string_view content = plan.file.view();
  if (content.empty()) throw ParseError("empty CSV file: " + path);

  // Header line: same parse as the serial reader (getline + CR strip +
  // split_csv_line), expressed through the cursor.
  CsvCursor header_cursor(content);
  std::string_view header_line;
  header_cursor.next(header_line);
  // A header whose quotes never close swallows the whole file in one
  // "record"; split_csv_line then reports the unterminated quote, like
  // the serial reader does for the first line.
  plan.header = util::split_csv_line(header_line);
  if (plan.header != expected_header)
    throw ParseError("unexpected " + header_label + " header in " + path);

  const std::size_t body_offset =
      header_line.data() != nullptr
          ? static_cast<std::size_t>(header_line.data() - content.data()) +
                header_line.size()
          : 0;
  // Skip the header's line terminator ("\n" or "\r\n").
  std::size_t skip = body_offset;
  if (skip < content.size() && content[skip] == '\r') ++skip;
  if (skip < content.size() && content[skip] == '\n') ++skip;
  plan.body = content.substr(skip);

  const unsigned threads = effective_threads(options);
  plan.chunks = plan_chunks(
      plan.body,
      threads * std::max<std::size_t>(1, options.chunks_per_thread),
      std::max<std::size_t>(1, options.min_chunk_bytes), threads);

  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("ingest.bytes_mapped").add(content.size());
  registry.counter("ingest.chunks").add(plan.chunks.size());
  return plan;
}

void flush_success(const char* records_counter, std::size_t rows,
                   std::size_t quoted) {
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("parse.lines_total").add(rows);
  registry.counter(records_counter).add(rows);
  registry.counter("ingest.records_quoted").add(quoted);
}

[[noreturn]] void report_failure(const std::string& path, const char* source,
                                 const char* records_counter,
                                 std::size_t header_arity,
                                 std::size_t rows_before, std::size_t quoted,
                                 const RowFailure& failure) {
  const std::size_t global_row = rows_before + failure.local_row;
  // The serial reader counts the bad row in lines_total (it was read),
  // leaves it out of the per-source records counter (it never parsed),
  // and counts one rejection.
  obs::MetricsRegistry& registry = obs::metrics();
  registry.counter("parse.lines_total").add(global_row);
  registry.counter(records_counter).add(global_row - 1);
  registry.counter("parse.lines_rejected").add();
  registry.counter("ingest.records_quoted").add(quoted);

  // Rows are reported 1-based counting the header: data row r is file
  // row r + 1 — the numbering CsvReader and the serial loaders use.
  const std::size_t reported_row = global_row + 1;
  switch (failure.kind) {
    case RowFailure::Kind::kQuote:
      obs::logger().warn("parse.line_rejected",
                         {{"file", path},
                          {"row", reported_row},
                          {"reason", "unterminated quote"}});
      std::rethrow_exception(failure.exception);
    case RowFailure::Kind::kArity:
      obs::logger().warn("parse.line_rejected",
                         {{"file", path},
                          {"row", reported_row},
                          {"reason", "arity mismatch"},
                          {"fields", failure.fields},
                          {"expected", header_arity}});
      throw ParseError("row " + std::to_string(reported_row) + " of " + path +
                       " has " + std::to_string(failure.fields) +
                       " fields, expected " + std::to_string(header_arity));
    case RowFailure::Kind::kRecord:
      obs::logger().warn("parse.record_rejected",
                         {{"source", source},
                          {"file", path},
                          {"row", reported_row},
                          {"error", failure.what}});
      std::rethrow_exception(failure.exception);
  }
  // Unreachable; keeps -Wreturn-type quiet for exotic enum values.
  throw ParseError("corrupt RowFailure in " + path);
}

}  // namespace detail
}  // namespace failmine::ingest
