// Unit tests for util/csv: RFC 4180 quoting, round trips, failure modes.

#include "util/csv.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/error.hpp"

namespace failmine::util {
namespace {

std::string read_path(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

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
  std::string read_file() const { return read_path(path_); }
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
    writer.write_rows(1, [](CsvRowBuffer& row, std::size_t) {
      row.integer(std::uint64_t{18446744073709551615u});
      row.integer(-42);
      row.timestamp(1365465600);
      row.fixed(2.5, 3);
      row.text("a,\"b\"");
      row.append(4, [](char* out) {
        for (const char c : {'R', '1', '7'}) *out++ = c;
        return out;
      });
    });
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
  CsvRowBuffer rows(2);
  rows.integer(1);
  rows.integer(2);
  rows.end_row();
  rows.integer(3);
  EXPECT_THROW(rows.end_row(), DomainError);
  rows.integer(4);
  rows.integer(5);
  rows.integer(6);
  EXPECT_THROW(rows.end_row(), DomainError);
  rows.integer(7);
  rows.integer(8);
  rows.end_row();
  EXPECT_EQ(rows.rows(), "1,2\n7,8\n");

  // The writer drops a row of the wrong arity and keeps writing.
  {
    CsvWriter writer(path_, {"a", "b"});
    writer.write_row({"1", "2"});
    EXPECT_THROW(writer.write_row({"3"}), DomainError);
    EXPECT_THROW(writer.write_row({"4", "5", "6"}), DomainError);
    writer.write_row({"7", "8"});
    writer.close();
    EXPECT_EQ(writer.rows_written(), 2u);
  }
  EXPECT_EQ(read_file(), "a,b\n1,2\n7,8\n");

  // A row of the wrong arity stops write_rows before any of its rows is
  // written.
  {
    CsvWriter writer(path_, {"a", "b"});
    EXPECT_THROW(writer.write_rows(3,
                                   [](CsvRowBuffer& row, std::size_t i) {
                                     row.integer(i);
                                     if (i != 1) row.integer(i);
                                   }),
                 DomainError);
    writer.close();
    EXPECT_EQ(writer.rows_written(), 0u);
  }
  EXPECT_EQ(read_file(), "a,b\n");
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
    writer.write_rows(rows + 1, [&big](CsvRowBuffer& row, std::size_t i) {
      row.integer(i);
      row.text(i == 0 ? std::string_view(big) : "twenty-seven bytes of text");
    });
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

// ---- parallel row formatting ----------------------------------------------

constexpr unsigned kWorkers = 4;

/// Rows 0..n-1 formatted one after another into one buffer, as a single
/// worker does: the bytes every parallel plan must give.
std::string one_worker_reference(std::size_t n, std::size_t arity,
                                 const CsvRowFormatter& format_row) {
  CsvRowBuffer rows(arity);
  for (std::size_t i = 0; i < n; ++i) {
    format_row(rows, i);
    rows.end_row();
  }
  return std::string(rows.rows());
}

/// Where two byte strings first differ, npos if they are equal. Files of
/// megabytes are compared through it: EXPECT_EQ on them would make gtest
/// build a line diff as large as the product of their line counts.
std::size_t first_difference(std::string_view a, std::string_view b) {
  const auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first;
  return a.size() == b.size() && at == a.end()
             ? std::string_view::npos
             : static_cast<std::size_t>(at - a.begin());
}

/// What detail::format_rows hands its sink for one plan.
struct Formatted {
  std::string bytes;
  std::size_t pieces = 0;
  std::size_t largest_piece = 0;
};

/// Range buffers start empty, so every range also grows its buffer.
Formatted format_in_ranges(std::size_t n, std::size_t arity,
                           std::size_t rows_per_range,
                           const CsvRowFormatter& format_row) {
  Formatted out;
  detail::format_rows(n, arity, rows_per_range, 0, kWorkers, format_row,
                      [&out](std::string_view piece) {
                        out.bytes += piece;
                        ++out.pieces;
                        out.largest_piece =
                            std::max(out.largest_piece, piece.size());
                      });
  return out;
}

/// Rows of exactly 64 bytes: a 7-digit id, a comma, 55 bytes of text and
/// the newline.
constexpr std::size_t kRowBytes = 64;
void sixty_four_byte_row(CsvRowBuffer& row, std::size_t i) {
  row.integer(1000000 + i);
  row.text(std::string_view("abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabc"));
}

// A write that fails after earlier ones succeeded: the process may write
// no more than 64 KiB to a file (RLIMIT_FSIZE, with SIGXFSZ ignored), so
// the header and the start of the first range reach the file and the
// next write fails with EFBIG. close() throws naming the path, and the
// file ends at the limit.
TEST_F(CsvFileTest, WriteFailingMidFileThrows) {
  constexpr rlim_t kLimit = 64 * 1024;
  struct FileSizeLimit {
    FileSizeLimit() {
      previous_handler = std::signal(SIGXFSZ, SIG_IGN);
      ok = ::getrlimit(RLIMIT_FSIZE, &previous) == 0 &&
           previous.rlim_max >= kLimit;
      rlimit limit = previous;
      limit.rlim_cur = kLimit;
      ok = ok && ::setrlimit(RLIMIT_FSIZE, &limit) == 0;
    }
    ~FileSizeLimit() {
      ::setrlimit(RLIMIT_FSIZE, &previous);
      std::signal(SIGXFSZ, previous_handler);
    }
    rlimit previous{};
    void (*previous_handler)(int) = SIG_DFL;
    bool ok = false;
  };
  {
    const FileSizeLimit limit;
    if (!limit.ok) GTEST_SKIP() << "cannot lower RLIMIT_FSIZE";
    CsvWriter writer(path_, {"id", "text"});
    writer.write_rows(100000, sixty_four_byte_row);
    try {
      writer.close();
      ADD_FAILURE() << "close() returned normally past the file size limit";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(std::filesystem::file_size(path_), kLimit);
}

void write_one_row(const std::string& path) {
  CsvWriter writer(path, {"a", "b"});
  writer.write_row({"1", "2"});
  writer.close();
}

// Writing over a longer file leaves exactly the new bytes. The writer
// replaces the file rather than truncating it, so a reader that held the
// old file open still reads the old bytes.
TEST_F(CsvFileTest, RewritingALongerFileLeavesOnlyTheNewBytes) {
  const std::string old_bytes(100000, 'x');
  std::ofstream(path_, std::ios::binary) << old_bytes;
  std::ifstream held(path_, std::ios::binary);
  ASSERT_TRUE(held);
  write_one_row(path_);
  EXPECT_EQ(read_file(), "a,b\n1,2\n");
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(held),
                        std::istreambuf_iterator<char>()),
            old_bytes);
}

// A file with a second hard link is rewritten in place, so both names
// read the new bytes; so is the target of a symlink, which stays a link.
TEST_F(CsvFileTest, RewritingALinkedFileWritesInPlace) {
  const std::string hard = path_ + ".hard";
  const std::string soft = path_ + ".soft";
  std::ofstream(path_, std::ios::binary) << std::string(100000, 'x');
  if (::link(path_.c_str(), hard.c_str()) != 0 ||
      ::symlink(path_.c_str(), soft.c_str()) != 0) {
    std::remove(hard.c_str());
    GTEST_SKIP() << "cannot link in the temporary directory";
  }
  write_one_row(path_);
  EXPECT_EQ(read_file(), "a,b\n1,2\n");
  EXPECT_EQ(read_path(hard), "a,b\n1,2\n");
  std::filesystem::remove(hard);

  std::ofstream(path_, std::ios::binary) << std::string(100000, 'y');
  write_one_row(soft);
  EXPECT_TRUE(std::filesystem::is_symlink(soft));
  EXPECT_EQ(read_file(), "a,b\n1,2\n");
  std::filesystem::remove(soft);
}

class CsvWriterRanges : public CsvFileTest {
 protected:
  /// The file CsvWriter::write_rows makes of the rows, after the header.
  std::string written(std::size_t n, std::size_t arity,
                      const CsvRowFormatter& format_row) {
    std::vector<std::string> header;
    for (std::size_t f = 0; f < arity; ++f)
      header.push_back("f" + std::to_string(f));
    {
      CsvWriter writer(path_, header);
      writer.write_rows(n, format_row);
      writer.close();
      EXPECT_EQ(writer.rows_written(), n);
    }
    const std::string bytes = read_file();
    const std::string header_line = join_csv_line(header) + "\n";
    EXPECT_EQ(bytes.substr(0, header_line.size()), header_line);
    return bytes.substr(std::min(bytes.size(), header_line.size()));
  }
};

TEST_F(CsvWriterRanges, ZeroRows) {
  const Formatted out = format_in_ranges(0, 2, 1, sixty_four_byte_row);
  EXPECT_EQ(out.bytes, "");
  EXPECT_EQ(out.pieces, 0u);
  EXPECT_EQ(written(0, 2, sixty_four_byte_row), "");
}

TEST_F(CsvWriterRanges, OneRow) {
  const std::string reference = one_worker_reference(1, 2, sixty_four_byte_row);
  ASSERT_EQ(reference.size(), kRowBytes);
  EXPECT_EQ(format_in_ranges(1, 2, 1, sixty_four_byte_row).bytes, reference);
  EXPECT_EQ(written(1, 2, sixty_four_byte_row), reference);
}

TEST_F(CsvWriterRanges, FewerRowsThanWorkers) {
  const std::size_t n = kWorkers - 1;
  const std::string reference = one_worker_reference(n, 2, sixty_four_byte_row);
  const Formatted out = format_in_ranges(n, 2, 1, sixty_four_byte_row);
  EXPECT_EQ(out.bytes, reference);
  EXPECT_EQ(out.pieces, n);
  EXPECT_EQ(written(n, 2, sixty_four_byte_row), reference);
}

// A range of kBlockBytes / 64 rows ends exactly on a block boundary; one
// row fewer or more ends just before or just after it. Each range reaches
// the sink as one piece, and the last range of the plan is short. The
// writer itself cuts 64-byte rows into ranges of exactly a quarter block,
// so every fourth range ends on a block boundary.
TEST_F(CsvWriterRanges, RangeEndingOnABlockBoundary) {
  const std::size_t block_rows = CsvWriter::kBlockBytes / kRowBytes;
  for (const std::size_t rows_per_range :
       {block_rows - 1, block_rows, block_rows + 1}) {
    SCOPED_TRACE("rows per range " + std::to_string(rows_per_range));
    const std::size_t n = 3 * rows_per_range + 5;
    const std::string reference =
        one_worker_reference(n, 2, sixty_four_byte_row);
    const Formatted out =
        format_in_ranges(n, 2, rows_per_range, sixty_four_byte_row);
    EXPECT_EQ(first_difference(out.bytes, reference), std::string::npos);
    EXPECT_EQ(out.pieces, 4u);
    EXPECT_EQ(out.largest_piece, rows_per_range * kRowBytes);
  }
  const std::size_t n = 3 * block_rows + 5;
  EXPECT_EQ(first_difference(written(n, 2, sixty_four_byte_row),
                             one_worker_reference(n, 2, sixty_four_byte_row)),
            std::string::npos);
}

// A field larger than a block makes its range's buffer grow far past the
// capacity the writer gives it.
TEST_F(CsvWriterRanges, FieldLargerThanABlock) {
  std::string big(CsvWriter::kBlockBytes * 2 + 3, 'x');
  big[7] = ',';
  big[big.size() / 2] = '"';
  const auto format_row = [&big](CsvRowBuffer& row, std::size_t i) {
    row.integer(i);
    row.text(i == 21 ? std::string_view(big) : "a row of ordinary length");
  };
  const std::size_t n = 200;
  const std::string reference = one_worker_reference(n, 2, format_row);
  for (const std::size_t rows_per_range : {1, 4, 50, 200}) {
    SCOPED_TRACE("rows per range " + std::to_string(rows_per_range));
    EXPECT_EQ(first_difference(
                  format_in_ranges(n, 2, rows_per_range, format_row).bytes,
                  reference),
              std::string::npos);
  }
  EXPECT_EQ(first_difference(written(n, 2, format_row), reference),
            std::string::npos);
}

// What format_row throws reaches the caller, and no row from the failing
// one on reaches the sink.
TEST_F(CsvWriterRanges, FormatterErrorStopsTheWrite) {
  const std::size_t n = 1000;
  const std::size_t bad = 537;
  const auto format_row = [](CsvRowBuffer& row, std::size_t i) {
    if (i == bad) throw DomainError("bad row");
    sixty_four_byte_row(row, i);
  };
  const std::string reference = one_worker_reference(bad, 2, format_row);
  std::string bytes;
  EXPECT_THROW(detail::format_rows(
                   n, 2, 10, 0, kWorkers, format_row,
                   [&bytes](std::string_view piece) { bytes += piece; }),
               DomainError);
  EXPECT_LE(bytes.size(), reference.size());
  EXPECT_EQ(bytes, reference.substr(0, bytes.size()));
}

}  // namespace
}  // namespace failmine::util
