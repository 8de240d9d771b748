// failmine/raslog/event.hpp
//
// One RAS event record plus the RasLog container with CSV round-tripping.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ingest/loader.hpp"
#include "raslog/category.hpp"
#include "raslog/component.hpp"
#include "raslog/severity.hpp"
#include "topology/location.hpp"
#include "topology/machine.hpp"
#include "util/time.hpp"

namespace failmine::util {
class FieldVec;
}  // namespace failmine::util

namespace failmine::raslog {

/// One event from the RAS log.
struct RasEvent {
  std::uint64_t record_id = 0;               ///< unique, ascending
  util::UnixSeconds timestamp = 0;
  std::string message_id;                    ///< 8-hex-digit catalog id
  Severity severity = Severity::kInfo;
  Component component = Component::kCnk;
  Category category = Category::kSoftware;
  topology::Location location = topology::Location::rack(0, 0);
  std::optional<std::uint64_t> job_id;       ///< control-system association
  std::string text;

  friend bool operator==(const RasEvent&, const RasEvent&) = default;
};

/// The RAS log CSV column order.
const std::vector<std::string>& ras_csv_header();

/// Parses one CSV row (ras_csv_header() order) into `out` in place,
/// validating the location against `config`. An empty job_id field
/// clears out.job_id, so a reused record never leaks the previous row's
/// association. Throws failmine::Error on invalid rows; `out` is
/// unspecified afterwards.
void parse_csv_row(const util::FieldVec& row,
                   const topology::MachineConfig& config, RasEvent& out);

/// In-memory RAS log: events in non-decreasing timestamp order.
class RasLog {
 public:
  RasLog() = default;

  /// Takes ownership; sorts as finalize() does.
  explicit RasLog(std::vector<RasEvent> events);

  const std::vector<RasEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Appends one event (re-sorting deferred until finalize()).
  void append(RasEvent event);

  /// Sorts by (timestamp, record_id), keeping the append order of equal
  /// keys (as the columnar merge does); call after a batch of appends.
  void finalize();

  /// Events with the given severity, in time order.
  std::vector<RasEvent> filter_severity(Severity severity) const;

  /// Events in [begin, end).
  std::vector<RasEvent> filter_time(util::UnixSeconds begin,
                                    util::UnixSeconds end) const;

  /// Count per severity (indexed INFO, WARN, FATAL).
  std::array<std::uint64_t, 3> severity_counts() const;

  /// Writes the log as CSV. Throws IoError.
  void write_csv(const std::string& path) const;

  /// Reads a log written by write_csv, validating every field against the
  /// machine config and catalog. Throws ParseError / IoError.
  ///
  /// By default the file is loaded by the parallel mmap ingest engine
  /// (ingest/loader.hpp) with `options.threads` workers; `options.threads
  /// == 1` (or Engine::kSerial) selects the line-oriented serial reader.
  /// Both paths produce identical events, metrics and diagnostics.
  static RasLog read_csv(const std::string& path,
                         const topology::MachineConfig& config,
                         const ingest::LoadOptions& options = {},
                         ingest::Engine engine = ingest::Engine::kAuto);

  /// Streams a CSV log row by row without materializing it: `callback` is
  /// invoked once per event in file order. Returning false stops early.
  /// Memory use is O(1) in the log size — the right entry point for
  /// paper-scale (multi-GB) RAS logs.
  static void for_each_csv(const std::string& path,
                           const topology::MachineConfig& config,
                           const std::function<bool(const RasEvent&)>& callback);

 private:
  std::vector<RasEvent> events_;
};

}  // namespace failmine::raslog
