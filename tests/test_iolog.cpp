// Unit tests for the iolog library.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "iolog/io_record.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace failmine::iolog {
namespace {

IoRecord make_record(std::uint64_t job_id, std::uint64_t read,
                     std::uint64_t write) {
  IoRecord r;
  r.job_id = job_id;
  r.bytes_read = read;
  r.bytes_written = write;
  r.read_time_seconds = 1.5;
  r.write_time_seconds = 2.25;
  r.files_accessed = 12;
  r.ranks_doing_io = 256;
  return r;
}

TEST(IoRecord, TotalBytes) {
  EXPECT_EQ(make_record(1, 100, 200).total_bytes(), 300u);
}

TEST(IoLog, IndexesByJob) {
  IoLog log({make_record(5, 1, 2), make_record(3, 3, 4)});
  EXPECT_TRUE(log.contains(3));
  EXPECT_FALSE(log.contains(4));
  EXPECT_EQ(log.by_job(5).bytes_read, 1u);
  EXPECT_THROW(log.by_job(4), failmine::DomainError);
  // Sorted by job id.
  EXPECT_EQ(log.records()[0].job_id, 3u);
}

TEST(IoLog, DuplicateJobRejected) {
  EXPECT_THROW(IoLog({make_record(1, 0, 0), make_record(1, 1, 1)}),
               failmine::DomainError);
}

class IoLogFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_io_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(IoLogFile, CsvRoundTrip) {
  IoLog log({make_record(7, 1234567890123ULL, 987654321ULL)});
  log.write_csv(path_);
  const IoLog loaded = IoLog::read_csv(path_);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.records()[0].job_id, 7u);
  EXPECT_EQ(loaded.records()[0].bytes_read, 1234567890123ULL);
  EXPECT_EQ(loaded.records()[0].bytes_written, 987654321ULL);
  EXPECT_NEAR(loaded.records()[0].read_time_seconds, 1.5, 1e-9);
  EXPECT_EQ(loaded.records()[0].files_accessed, 12u);
}

TEST_F(IoLogFile, ReadRejectsWrongHeader) {
  {
    std::ofstream out(path_);
    out << "a,b\n1,2\n";
  }
  EXPECT_THROW(IoLog::read_csv(path_), failmine::ParseError);
}

TEST_F(IoLogFile, ReadRejectsNegativeBytes) {
  {
    std::ofstream out(path_);
    out << "job_id,bytes_read,bytes_written,read_time_s,write_time_s,"
           "files_accessed,ranks_doing_io\n"
        << "1,-5,0,0,0,1,1\n";
  }
  EXPECT_THROW(IoLog::read_csv(path_), failmine::ParseError);
}

TEST(IoLog, EmptyLog) {
  const IoLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(log.contains(1));
}

const std::vector<std::string> kValidRow = {"1", "100", "200", "0.5",
                                            "0.25", "3", "16"};

/// Parses a CSV row of kValidRow with field `field` set to `value`.
IoRecord parse_with(std::size_t field, const std::string& value) {
  std::vector<std::string> fields = kValidRow;
  fields[field] = value;
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i)
    line += (i > 0 ? "," : "") + fields[i];
  util::FieldVec row;
  util::split_csv_fields(line, row);
  IoRecord out;
  parse_csv_row(row, out);
  return out;
}

TEST(IoCsvRow, ThirtyTwoBitFieldsRejectOverflowInsteadOfWrapping) {
  // files accessed, ranks doing I/O
  for (const std::size_t field : {5, 6}) {
    SCOPED_TRACE(io_csv_header()[field]);
    EXPECT_NO_THROW(parse_with(field, "4294967295"));
    EXPECT_THROW(parse_with(field, "4294967296"), failmine::ParseError);
  }
  EXPECT_EQ(parse_with(5, "4294967295").files_accessed, UINT32_MAX);
}

}  // namespace
}  // namespace failmine::iolog
