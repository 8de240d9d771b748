// Unit tests for util/csv: RFC 4180 quoting, round trips, failure modes.

#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/error.hpp"

namespace failmine::util {
namespace {

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_csv_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST(CsvSplit, PlainFields) {
  EXPECT_EQ(split_csv_line("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvSplit, EmptyFieldsPreserved) {
  EXPECT_EQ(split_csv_line(",,"), (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(split_csv_line(""), (std::vector<std::string>{""}));
}

TEST(CsvSplit, QuotedCommaAndQuote) {
  EXPECT_EQ(split_csv_line(R"("a,b","say ""hi""")"),
            (std::vector<std::string>{"a,b", "say \"hi\""}));
}

TEST(CsvSplit, UnterminatedQuoteThrows) {
  EXPECT_THROW(split_csv_line("\"abc"), ParseError);
}

TEST(CsvEscape, OnlyQuotesWhenNeeded) {
  EXPECT_EQ(escape_csv_field("plain"), "plain");
  EXPECT_EQ(escape_csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(escape_csv_field("q\"q"), "\"q\"\"q\"");
}

TEST(CsvJoin, RoundTripsThroughSplit) {
  const std::vector<std::string> fields = {"x", "a,b", "\"quoted\"", "", "multi\nline"};
  EXPECT_EQ(split_csv_line(join_csv_line(fields)), fields);
}

TEST_F(CsvFileTest, WriteThenReadRoundTrips) {
  {
    CsvWriter writer(path_, {"id", "name"});
    writer.write_row({"1", "alpha,beta"});
    writer.write_row({"2", "with \"quotes\""});
    writer.close();
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  CsvReader reader(path_);
  EXPECT_EQ(reader.header(), (std::vector<std::string>{"id", "name"}));
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "alpha,beta"}));
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row, (std::vector<std::string>{"2", "with \"quotes\""}));
  EXPECT_FALSE(reader.next(row));
  EXPECT_EQ(reader.rows_read(), 2u);
}

TEST_F(CsvFileTest, WriterRejectsWrongArity) {
  CsvWriter writer(path_, {"a", "b"});
  EXPECT_THROW(writer.write_row({"only-one"}), DomainError);
}

TEST_F(CsvFileTest, TypedAppendsRoundTrip) {
  {
    CsvWriter writer(path_, {"int", "neg", "time", "fixed", "text", "raw"});
    writer.integer(std::uint64_t{18446744073709551615u});
    writer.integer(-42);
    writer.timestamp(1365465600);
    writer.fixed(2.5, 3);
    writer.text("a,\"b\"");
    writer.append(4, [](char* out) {
      for (const char c : {'R', '1', '7'}) *out++ = c;
      return out;
    });
    writer.end_row();
    writer.close();
    EXPECT_EQ(writer.rows_written(), 1u);
  }
  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes,
            "int,neg,time,fixed,text,raw\n"
            "18446744073709551615,-42,2013-04-09 00:00:00,2.500,"
            "\"a,\"\"b\"\"\",R17\n");
}

TEST_F(CsvFileTest, EndRowRejectsWrongArityAndDropsTheRow) {
  {
    CsvWriter writer(path_, {"a", "b"});
    writer.write_row({"1", "2"});
    writer.integer(3);
    EXPECT_THROW(writer.end_row(), DomainError);
    writer.integer(4);
    writer.integer(5);
    writer.integer(6);
    EXPECT_THROW(writer.end_row(), DomainError);
    writer.write_row({"7", "8"});
    writer.close();
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "a,b\n1,2\n7,8\n");
}

TEST_F(CsvFileTest, FieldsLargerThanABlockRoundTrip) {
  // One field past the block size makes the buffer grow; many rows past
  // it make the writer write more than one block.
  std::string big(CsvWriter::kBlockBytes * 2 + 3, 'x');
  big[7] = ',';
  big[big.size() / 2] = '"';
  const std::size_t rows = 3 * CsvWriter::kBlockBytes / 32;
  {
    CsvWriter writer(path_, {"id", "body"});
    writer.integer(0);
    writer.text(big);
    writer.end_row();
    for (std::size_t i = 1; i <= rows; ++i) {
      writer.integer(i);
      writer.text("twenty-seven bytes of text");
      writer.end_row();
    }
    writer.close();
  }
  CsvReader reader(path_);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row[1], big);
  for (std::size_t i = 1; i <= rows; ++i) {
    ASSERT_TRUE(reader.next(row));
    ASSERT_EQ(row[0], std::to_string(i));
  }
  EXPECT_FALSE(reader.next(row));
}

TEST_F(CsvFileTest, ReaderRejectsWrongArity) {
  {
    std::ofstream out(path_);
    out << "a,b\n1,2\n1,2,3\n";
  }
  CsvReader reader(path_);
  std::vector<std::string> row;
  EXPECT_TRUE(reader.next(row));
  EXPECT_THROW(reader.next(row), ParseError);
}

TEST_F(CsvFileTest, ReaderHandlesCrLf) {
  {
    std::ofstream out(path_);
    out << "a,b\r\n1,2\r\n";
  }
  CsvReader reader(path_);
  EXPECT_EQ(reader.header(), (std::vector<std::string>{"a", "b"}));
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next(row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2"}));
}

TEST_F(CsvFileTest, EmptyFileThrows) {
  { std::ofstream out(path_); }
  EXPECT_THROW(CsvReader reader(path_), ParseError);
}

TEST(CsvReader, MissingFileThrows) {
  EXPECT_THROW(CsvReader("/nonexistent/file.csv"), IoError);
}

TEST(CsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv", {"a"}), IoError);
}

TEST(CsvWriter, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter("/tmp/failmine_header.csv", {}), DomainError);
}

// A write that fails (here: no space left on the device) must not pass
// unreported. close() throws naming the path, both when the failure hits
// a full block mid-file and when it hits the last, partial block.
TEST(CsvWriter, FullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const std::size_t rows : {std::size_t{1}, CsvWriter::kBlockBytes / 8}) {
    CsvWriter writer("/dev/full", {"id", "text"});
    for (std::size_t i = 0; i < rows; ++i) writer.write_row({"1", "abcd"});
    try {
      writer.close();
      ADD_FAILURE() << "close() returned normally after " << rows << " rows";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace failmine::util
