// Unit tests for the joblog library: exit-status taxonomy, derived
// metrics, container behaviour and CSV round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <unistd.h>

#include "joblog/job.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace failmine::joblog {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

TEST(ExitClassNames, RoundTrip) {
  for (ExitClass c : kAllExitClasses)
    EXPECT_EQ(exit_class_from_name(exit_class_name(c)), c);
  EXPECT_THROW(exit_class_from_name("WHAT"), failmine::ParseError);
}

TEST(ExitClass, CausePredicatesPartitionFailures) {
  for (ExitClass c : kAllExitClasses) {
    if (c == ExitClass::kSuccess) {
      EXPECT_FALSE(is_failure(c));
      EXPECT_FALSE(is_user_caused(c));
      EXPECT_FALSE(is_system_caused(c));
    } else {
      EXPECT_TRUE(is_failure(c));
      EXPECT_NE(is_user_caused(c), is_system_caused(c));
    }
  }
}

struct ClassifyCase {
  int exit_code;
  int signal;
  bool system;
  bool io;
  bool software;
  ExitClass expected;
};

// Without a printer GoogleTest names each case by the raw bytes of the
// struct, padding bytes included, which vary from build to build. The
// inputs alone identify a case: exit135_sig11_system_io.
void PrintTo(const ClassifyCase& c, std::ostream* os) {
  *os << "exit" << c.exit_code << "_sig" << c.signal
      << (c.system ? "_system" : "") << (c.io ? "_io" : "")
      << (c.software ? "_software" : "");
}

class ClassifyExit : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyExit, MapsToExpectedClass) {
  const auto& c = GetParam();
  EXPECT_EQ(classify_exit(c.exit_code, c.signal, c.system, c.io, c.software),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ClassifyExit,
    ::testing::Values(
        ClassifyCase{0, 0, false, false, false, ExitClass::kSuccess},
        ClassifyCase{1, 0, false, false, false, ExitClass::kUserAppError},
        ClassifyCase{17, 11, false, false, false, ExitClass::kUserAppError},
        ClassifyCase{125, 0, false, false, false, ExitClass::kUserConfigError},
        ClassifyCase{127, 0, false, false, false, ExitClass::kUserConfigError},
        ClassifyCase{0, 15, false, false, false, ExitClass::kUserKill},
        ClassifyCase{0, 2, false, false, false, ExitClass::kUserKill},
        ClassifyCase{24, 9, false, false, false, ExitClass::kWalltimeLimit},
        ClassifyCase{139, 7, true, false, false, ExitClass::kSystemHardware},
        ClassifyCase{135, 11, true, false, true, ExitClass::kSystemSoftware},
        ClassifyCase{135, 11, true, true, false, ExitClass::kSystemIo}));

JobRecord make_job(std::uint64_t id, util::UnixSeconds start,
                   util::UnixSeconds end, std::uint32_t nodes = 512) {
  JobRecord j;
  j.job_id = id;
  j.user_id = 1;
  j.project_id = 2;
  j.queue = "prod-short";
  j.submit_time = start - 100;
  j.start_time = start;
  j.end_time = end;
  j.nodes_used = nodes;
  j.task_count = 1;
  j.requested_walltime = 3600;
  return j;
}

TEST(JobRecord, DerivedMetrics) {
  const JobRecord j = make_job(1, 1000, 4600, 1024);
  EXPECT_EQ(j.runtime_seconds(), 3600);
  EXPECT_EQ(j.wait_seconds(), 100);
  EXPECT_DOUBLE_EQ(j.core_hours(kMira), 1024.0 * 16.0);
}

TEST(JobRecord, PartitionDerivation) {
  JobRecord j = make_job(1, 0, 100, 1024);
  j.partition_first_midplane = 4;
  const auto p = j.partition(kMira);
  EXPECT_EQ(p.first_midplane(), 4);
  EXPECT_EQ(p.midplane_count(), 2);
}

TEST(JobLog, SortsByStartTimeAndIndexes) {
  JobLog log({make_job(3, 300, 400), make_job(1, 100, 200),
              make_job(2, 200, 300)});
  EXPECT_EQ(log.jobs()[0].job_id, 1u);
  EXPECT_EQ(log.jobs()[2].job_id, 3u);
  EXPECT_TRUE(log.contains(2));
  EXPECT_FALSE(log.contains(99));
  EXPECT_EQ(log.by_id(3).start_time, 300);
  EXPECT_THROW(log.by_id(99), failmine::DomainError);
}

TEST(JobLog, DuplicateIdsRejected) {
  EXPECT_THROW(JobLog({make_job(1, 0, 1), make_job(1, 2, 3)}),
               failmine::DomainError);
}

TEST(JobLog, FailuresAndTotals) {
  JobRecord ok = make_job(1, 0, 3600);
  JobRecord bad = make_job(2, 0, 1800);
  bad.exit_class = ExitClass::kUserAppError;
  bad.exit_code = 1;
  JobLog log({ok, bad});
  EXPECT_EQ(log.failures().size(), 1u);
  EXPECT_EQ(log.failures()[0].job_id, 2u);
}

class JobLogFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_jobs_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(JobLogFile, CsvRoundTrip) {
  JobRecord a = make_job(101, 1365465600, 1365469200);
  a.exit_class = ExitClass::kSystemHardware;
  a.exit_code = 139;
  a.exit_signal = 7;
  a.queue = "prod-capability";
  JobRecord b = make_job(102, 1365465700, 1365465800, 49152);
  JobLog log({a, b});
  log.write_csv(path_);
  const JobLog loaded = JobLog::read_csv(path_);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.jobs()[0], log.jobs()[0]);
  EXPECT_EQ(loaded.jobs()[1], log.jobs()[1]);
}

TEST_F(JobLogFile, ReadRejectsInvertedTimes) {
  JobRecord a = make_job(1, 1000, 2000);
  JobLog log({a});
  log.write_csv(path_);
  std::string header, row;
  {
    std::ifstream in(path_);
    std::getline(in, header);
    std::getline(in, row);
  }
  // Swap start/end by rewriting with end < start.
  {
    std::ofstream out(path_);
    out << header << "\n"
        << "1,1,2,prod-short,1970-01-01 00:15:00,1970-01-01 00:16:40,"
           "1970-01-01 00:00:10,512,1,3600,0,0,SUCCESS,0\n";
  }
  EXPECT_THROW(JobLog::read_csv(path_), failmine::ParseError);
}

TEST_F(JobLogFile, ReadRejectsUnknownExitClass) {
  {
    std::ofstream out(path_);
    out << "job_id,user_id,project_id,queue,submit_time,start_time,end_time,"
           "nodes_used,task_count,requested_walltime,exit_code,exit_signal,"
           "exit_class,partition_first_midplane\n"
        << "1,1,2,q,1970-01-01 00:00:00,1970-01-01 00:00:01,"
           "1970-01-01 00:00:02,512,1,60,0,0,BOGUS,0\n";
  }
  EXPECT_THROW(JobLog::read_csv(path_), failmine::ParseError);
}

const std::vector<std::string> kValidRow = {
    "1", "1", "2", "q", "1970-01-01 00:00:00", "1970-01-01 00:00:01",
    "1970-01-01 00:00:02", "512", "1", "60", "0", "0", "SUCCESS", "0"};

/// Parses a CSV row of kValidRow with field `field` set to `value`.
JobRecord parse_with(std::size_t field, const std::string& value) {
  std::vector<std::string> fields = kValidRow;
  fields[field] = value;
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i)
    line += (i > 0 ? "," : "") + fields[i];
  util::FieldVec row;
  util::split_csv_fields(line, row);
  JobRecord out;
  parse_csv_row(row, out);
  return out;
}

TEST(JobCsvRow, ThirtyTwoBitFieldsRejectOverflowInsteadOfWrapping) {
  // user, project, nodes, task count
  for (const std::size_t field : {1, 2, 7, 8}) {
    SCOPED_TRACE(job_csv_header()[field]);
    EXPECT_NO_THROW(parse_with(field, "4294967295"));
    EXPECT_THROW(parse_with(field, "4294967296"), failmine::ParseError);
  }
  // exit code, exit signal, partition
  for (const std::size_t field : {10, 11, 13}) {
    SCOPED_TRACE(job_csv_header()[field]);
    EXPECT_NO_THROW(parse_with(field, "2147483647"));
    EXPECT_NO_THROW(parse_with(field, "-2147483648"));
    EXPECT_THROW(parse_with(field, "2147483648"), failmine::ParseError);
    EXPECT_THROW(parse_with(field, "-2147483649"), failmine::ParseError);
  }
  EXPECT_EQ(parse_with(1, "4294967295").user_id, UINT32_MAX);
  EXPECT_EQ(parse_with(10, "-2147483648").exit_code, INT32_MIN);
}

}  // namespace
}  // namespace failmine::joblog
