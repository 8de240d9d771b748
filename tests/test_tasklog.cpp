// Unit tests for the tasklog library.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "tasklog/task.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace failmine::tasklog {
namespace {

TaskRecord make_task(std::uint64_t task_id, std::uint64_t job_id,
                     std::uint32_t seq, util::UnixSeconds start,
                     util::UnixSeconds end) {
  TaskRecord t;
  t.task_id = task_id;
  t.job_id = job_id;
  t.sequence = seq;
  t.start_time = start;
  t.end_time = end;
  t.nodes_used = 512;
  t.ranks_per_node = 16;
  return t;
}

TEST(TaskRecord, DerivedMetrics) {
  TaskRecord t = make_task(1, 10, 0, 100, 400);
  EXPECT_EQ(t.runtime_seconds(), 300);
  EXPECT_FALSE(t.failed());
  t.exit_code = 1;
  EXPECT_TRUE(t.failed());
  t.exit_code = 0;
  t.exit_signal = 9;
  EXPECT_TRUE(t.failed());
}

TEST(TaskLog, GroupsByJobInSequenceOrder) {
  TaskLog log({make_task(3, 20, 1, 0, 1), make_task(1, 10, 0, 0, 1),
               make_task(2, 10, 1, 1, 2)});
  EXPECT_EQ(log.task_count(10), 2u);
  EXPECT_EQ(log.task_count(20), 1u);
  EXPECT_EQ(log.task_count(99), 0u);
  const auto of_ten = log.tasks_of_job(10);
  ASSERT_EQ(of_ten.size(), 2u);
  EXPECT_EQ(of_ten[0].sequence, 0u);
  EXPECT_EQ(of_ten[1].sequence, 1u);
  EXPECT_TRUE(log.tasks_of_job(99).empty());
}

class TaskLogFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_tasks_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TaskLogFile, CsvRoundTrip) {
  TaskRecord a = make_task(1, 10, 0, 1365465600, 1365465700);
  a.exit_code = 1;
  a.exit_signal = 11;
  TaskLog log({a, make_task(2, 10, 1, 1365465700, 1365465900)});
  log.write_csv(path_);
  const TaskLog loaded = TaskLog::read_csv(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.tasks()[0], log.tasks()[0]);
  EXPECT_EQ(loaded.tasks()[1], log.tasks()[1]);
}

TEST_F(TaskLogFile, ReadRejectsWrongHeader) {
  {
    std::ofstream out(path_);
    out << "nope\n1\n";
  }
  EXPECT_THROW(TaskLog::read_csv(path_), failmine::ParseError);
}

TEST_F(TaskLogFile, ReadRejectsInvertedWindow) {
  {
    std::ofstream out(path_);
    out << "task_id,job_id,sequence,start_time,end_time,nodes_used,"
           "ranks_per_node,exit_code,exit_signal\n"
        << "1,10,0,1970-01-01 00:10:00,1970-01-01 00:05:00,512,16,0,0\n";
  }
  EXPECT_THROW(TaskLog::read_csv(path_), failmine::ParseError);
}

TEST(TaskLog, EmptyLog) {
  const TaskLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.task_count(1), 0u);
}

const std::vector<std::string> kValidRow = {
    "1", "10", "0", "1970-01-01 00:00:00", "1970-01-01 00:00:01", "512", "16",
    "0", "0"};

/// Parses a CSV row of kValidRow with field `field` set to `value`.
TaskRecord parse_with(std::size_t field, const std::string& value) {
  std::vector<std::string> fields = kValidRow;
  fields[field] = value;
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i)
    line += (i > 0 ? "," : "") + fields[i];
  util::FieldVec row;
  util::split_csv_fields(line, row);
  TaskRecord out;
  parse_csv_row(row, out);
  return out;
}

TEST(TaskCsvRow, ThirtyTwoBitFieldsRejectOverflowInsteadOfWrapping) {
  // sequence, nodes, ranks per node
  for (const std::size_t field : {2, 5, 6}) {
    SCOPED_TRACE(task_csv_header()[field]);
    EXPECT_NO_THROW(parse_with(field, "4294967295"));
    EXPECT_THROW(parse_with(field, "4294967296"), failmine::ParseError);
  }
  // exit code, exit signal
  for (const std::size_t field : {7, 8}) {
    SCOPED_TRACE(task_csv_header()[field]);
    EXPECT_NO_THROW(parse_with(field, "2147483647"));
    EXPECT_NO_THROW(parse_with(field, "-2147483648"));
    EXPECT_THROW(parse_with(field, "2147483648"), failmine::ParseError);
    EXPECT_THROW(parse_with(field, "-2147483649"), failmine::ParseError);
  }
  EXPECT_EQ(parse_with(2, "4294967295").sequence, UINT32_MAX);
}

}  // namespace
}  // namespace failmine::tasklog
