// Byte parity of the four log writers with a plain reference formatter.
//
// The reference is the writers' former formatting, kept here on purpose
// in its simplest form: every field a std::string, snprintf for
// timestamps, locations and I/O times, std::to_string for integers, and
// per row an RFC 4180 escape of each field joined with commas. The typed
// appends of util::CsvWriter must give the same bytes for whole simulated
// logs and for hand-made rows at the edges of every field type.

#include <gtest/gtest.h>

#include <unistd.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "iolog/io_record.hpp"
#include "joblog/job.hpp"
#include "raslog/event.hpp"
#include "sim/simulator.hpp"
#include "tasklog/task.hpp"
#include "topology/location.hpp"
#include "util/time.hpp"

namespace failmine {
namespace {

// ---- reference formatting --------------------------------------------------

std::string ref_escape(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos)
    return std::string(field);
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string ref_row(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += ref_escape(fields[i]);
  }
  return line + '\n';
}

std::string ref_timestamp(util::UnixSeconds t) {
  const util::CivilTime ct = util::to_civil(t);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", ct.year,
                ct.month, ct.day, ct.hour, ct.minute, ct.second);
  return buf;
}

std::string ref_location(const topology::Location& loc) {
  using topology::Level;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "R%d%X", loc.rack_row(), loc.rack_column());
  std::string out = buf;
  if (loc.level() >= Level::kMidplane) {
    std::snprintf(buf, sizeof(buf), "-M%d", loc.midplane());
    out += buf;
  }
  if (loc.level() >= Level::kNodeBoard) {
    std::snprintf(buf, sizeof(buf), "-N%02d", loc.board());
    out += buf;
  }
  if (loc.level() >= Level::kComputeCard) {
    std::snprintf(buf, sizeof(buf), "-J%02d", loc.card());
    out += buf;
  }
  if (loc.level() >= Level::kCore) {
    std::snprintf(buf, sizeof(buf), "-C%02d", loc.core());
    out += buf;
  }
  return out;
}

std::string ref_fixed3(double v) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string ref_csv(const raslog::RasLog& log) {
  std::string out = ref_row(raslog::ras_csv_header());
  for (const auto& e : log.events())
    out += ref_row({std::to_string(e.record_id), ref_timestamp(e.timestamp),
                    e.message_id, raslog::severity_name(e.severity),
                    raslog::component_name(e.component),
                    raslog::category_name(e.category),
                    ref_location(e.location),
                    e.job_id ? std::to_string(*e.job_id) : "", e.text});
  return out;
}

std::string ref_csv(const joblog::JobLog& log) {
  std::string out = ref_row(joblog::job_csv_header());
  for (const auto& j : log.jobs())
    out += ref_row({std::to_string(j.job_id), std::to_string(j.user_id),
                    std::to_string(j.project_id), j.queue,
                    ref_timestamp(j.submit_time), ref_timestamp(j.start_time),
                    ref_timestamp(j.end_time), std::to_string(j.nodes_used),
                    std::to_string(j.task_count),
                    std::to_string(j.requested_walltime),
                    std::to_string(j.exit_code), std::to_string(j.exit_signal),
                    joblog::exit_class_name(j.exit_class),
                    std::to_string(j.partition_first_midplane)});
  return out;
}

std::string ref_csv(const tasklog::TaskLog& log) {
  std::string out = ref_row(tasklog::task_csv_header());
  for (const auto& t : log.tasks())
    out += ref_row({std::to_string(t.task_id), std::to_string(t.job_id),
                    std::to_string(t.sequence), ref_timestamp(t.start_time),
                    ref_timestamp(t.end_time), std::to_string(t.nodes_used),
                    std::to_string(t.ranks_per_node),
                    std::to_string(t.exit_code),
                    std::to_string(t.exit_signal)});
  return out;
}

std::string ref_csv(const iolog::IoLog& log) {
  std::string out = ref_row(iolog::io_csv_header());
  for (const auto& r : log.records())
    out += ref_row({std::to_string(r.job_id), std::to_string(r.bytes_read),
                    std::to_string(r.bytes_written),
                    ref_fixed3(r.read_time_seconds),
                    ref_fixed3(r.write_time_seconds),
                    std::to_string(r.files_accessed),
                    std::to_string(r.ranks_doing_io)});
  return out;
}

// ---- comparison ------------------------------------------------------------

class CsvWriterParity : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_csv_parity_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Writes `log` with its write_csv and checks every byte against the
  /// reference; a mismatch names the first differing line.
  template <class Log>
  void expect_parity(const Log& log, const char* name) {
    log.write_csv(path_);
    std::ifstream in(path_, std::ios::binary);
    const std::string actual((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    const std::string expected = ref_csv(log);
    if (actual == expected) return;
    std::size_t at = 0;
    while (at < actual.size() && at < expected.size() &&
           actual[at] == expected[at])
      ++at;
    const std::size_t line_begin = expected.rfind('\n', at) + 1;
    const auto line_of = [line_begin](const std::string& s) {
      return s.substr(line_begin, s.find('\n', line_begin) - line_begin);
    };
    ADD_FAILURE() << name << ": " << actual.size() << " bytes written, "
                  << expected.size() << " expected; first difference at byte "
                  << at << "\n  written:  " << line_of(actual)
                  << "\n  expected: " << line_of(expected);
  }

  std::string path_;
};

TEST_F(CsvWriterParity, SimulatedLogsAtThreeSeeds) {
  for (const std::uint64_t seed : {1, 5, 9}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::SimConfig config;
    config.scale = 0.01;
    config.seed = seed;
    const sim::SimResult trace = sim::simulate(config);
    ASSERT_GT(trace.ras_log.size(), 0u);
    expect_parity(trace.ras_log, "ras");
    expect_parity(trace.job_log, "jobs");
    expect_parity(trace.task_log, "tasks");
    expect_parity(trace.io_log, "io");
  }
}

// The seconds of 1970-01-01 00:00:00 and 9999-12-31 23:59:59, the ends of
// the four-digit fast path, and times on both sides of it.
constexpr util::UnixSeconds kEpoch = 0;
constexpr util::UnixSeconds kLastFourDigitSecond = 253402300799;
constexpr util::UnixSeconds kEdgeTimes[] = {
    kEpoch, kLastFourDigitSecond, -1, kLastFourDigitSecond + 1,
    -62167219201 /* 0000-01-01 00:00:00 minus one second: year -1 */,
    -62167219200 /* 0000-01-01 00:00:00 */, 1365465600 /* 2013-04-09 */};

TEST_F(CsvWriterParity, RasEdgeRows) {
  using topology::Location;
  const Location largest_card =
      Location::rack(2, 15).with_midplane(1).with_board(15).with_card(31);
  const Location locations[] = {
      Location::rack(0, 0),
      Location::rack(2, 15),
      Location::rack(2, 15).with_midplane(1),
      Location::rack(2, 15).with_midplane(1).with_board(15),
      largest_card,
      largest_card.with_core(15),
      Location::rack(1, 10).with_midplane(0).with_board(0).with_card(0)
          .with_core(0),
  };
  const std::string texts[] = {"plain text",  "comma, inside", "say \"hi\"",
                               "line\nfeed",  "carriage\rreturn",
                               "\"", ",", "", "\r\n", "a,\"b\"\nc\r"};
  std::vector<raslog::RasEvent> events;
  std::uint64_t id = 1;
  for (const auto& location : locations)
    for (const auto& text : texts) {
      raslog::RasEvent e;
      e.record_id = id++;
      e.timestamp = kEdgeTimes[id % std::size(kEdgeTimes)];
      e.message_id = id % 3 == 0 ? text : "00080004";
      e.severity = raslog::kAllSeverities[id % 3];
      e.component = raslog::kAllComponents[id % std::size(raslog::kAllComponents)];
      e.category = raslog::kAllCategories[id % std::size(raslog::kAllCategories)];
      e.location = location;
      if (id % 4 == 1)
        e.job_id.reset();  // the empty job_id field
      else
        e.job_id = id % 4 == 2 ? std::numeric_limits<std::uint64_t>::max()
                               : id;
      e.text = text;
      events.push_back(e);
    }
  expect_parity(raslog::RasLog(std::move(events)), "ras");
}

TEST_F(CsvWriterParity, JobEdgeRows) {
  const std::string queues[] = {"prod-short", "q,with,commas", "q\"quoted\"",
                                "q\nlf", "q\rcr", ""};
  const int codes[] = {0, 1, -1, 255, INT_MIN, INT_MAX};
  std::vector<joblog::JobRecord> jobs;
  std::uint64_t id = 1;
  for (const auto& queue : queues)
    for (const int code : codes) {
      joblog::JobRecord j;
      j.job_id = id == 1 ? std::numeric_limits<std::uint64_t>::max() : id;
      j.user_id = id % 2 ? std::numeric_limits<std::uint32_t>::max() : 0;
      j.project_id = static_cast<std::uint32_t>(id * 7);
      j.queue = queue;
      j.submit_time = kEpoch;
      j.start_time = kEdgeTimes[id % std::size(kEdgeTimes)];
      j.end_time = kLastFourDigitSecond;
      j.nodes_used = 49152;
      j.task_count = static_cast<std::uint32_t>(id);
      j.requested_walltime = id % 3 ? -86400 : INT64_MAX;
      j.exit_code = code;
      j.exit_signal = -code / 2;
      j.exit_class = joblog::kAllExitClasses[id % std::size(joblog::kAllExitClasses)];
      j.partition_first_midplane = id % 2 ? -1 : 95;
      jobs.push_back(j);
      ++id;
    }
  expect_parity(joblog::JobLog(std::move(jobs)), "jobs");
}

TEST_F(CsvWriterParity, TaskEdgeRows) {
  const int codes[] = {0, -1, -9, 137, INT_MIN, INT_MAX};
  std::vector<tasklog::TaskRecord> tasks;
  std::uint64_t id = 1;
  for (const int code : codes)
    for (const int signal : codes) {
      tasklog::TaskRecord t;
      t.task_id = id;
      t.job_id = id % 5 == 0 ? std::numeric_limits<std::uint64_t>::max() : id;
      t.sequence = static_cast<std::uint32_t>(id % 7);
      t.start_time = kEdgeTimes[id % std::size(kEdgeTimes)];
      t.end_time = kLastFourDigitSecond;
      t.nodes_used = std::numeric_limits<std::uint32_t>::max();
      t.ranks_per_node = 64;
      t.exit_code = code;
      t.exit_signal = signal;
      tasks.push_back(t);
      ++id;
    }
  expect_parity(tasklog::TaskLog(std::move(tasks)), "tasks");
}

TEST_F(CsvWriterParity, IoEdgeRows) {
  // 0.0005 lies just above its decimal (rounds up); 2.0625 is an exact
  // tie (rounds to even); 0.9995 lies just below its decimal.
  const double times[] = {0.0, 0.0005, 2.0625, 1e12, 0.9995, 1234.5675,
                          -0.0, 1e-9, 0.0625, 123456789.0125};
  std::vector<iolog::IoRecord> records;
  std::uint64_t id = 1;
  for (const double read : times)
    for (const double write : times) {
      iolog::IoRecord r;
      r.job_id = id++;
      r.bytes_read = std::numeric_limits<std::uint64_t>::max();
      r.bytes_written = 0;
      r.read_time_seconds = read;
      r.write_time_seconds = write;
      r.files_accessed = 3;
      r.ranks_doing_io = std::numeric_limits<std::uint32_t>::max();
      records.push_back(r);
    }
  expect_parity(iolog::IoLog(std::move(records)), "io");
}

}  // namespace
}  // namespace failmine
