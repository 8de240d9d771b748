// Unit tests for the parallel zero-copy ingest engine: quote-aware
// chunk planning, the in-chunk record cursor, mmap/stream file access,
// the zero-copy field splitter and the parallel loader's determinism
// (records, metrics and error reporting identical to the serial path).

#include "ingest/chunk.hpp"
#include "ingest/loader.hpp"
#include "ingest/mapped_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace failmine::ingest {
namespace {

// ---------------------------------------------------------------- helpers

/// All records of `data` via one cursor (the chunking-free reference).
std::vector<std::string> records_of(std::string_view data) {
  std::vector<std::string> out;
  CsvCursor cursor(data);
  std::string_view record;
  while (cursor.next(record)) out.emplace_back(record);
  return out;
}

/// All records of `data` re-assembled from a chunk plan.
std::vector<std::string> records_via_chunks(std::string_view data,
                                            std::size_t target_chunks,
                                            std::size_t min_chunk_bytes) {
  std::vector<std::string> out;
  for (const Chunk& chunk : plan_chunks(data, target_chunks, min_chunk_bytes)) {
    CsvCursor cursor(chunk.data);
    std::string_view record;
    while (cursor.next(record)) out.emplace_back(record);
  }
  return out;
}

/// Asserts the chunk plan partitions `data` exactly and preserves the
/// record sequence, for a handful of chunk-count targets.
void expect_plan_is_partition(std::string_view data) {
  const std::vector<std::string> reference = records_of(data);
  for (std::size_t target : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{7}, std::size_t{64}}) {
    const auto chunks = plan_chunks(data, target, 1);
    std::string reassembled;
    for (const auto& c : chunks) reassembled += std::string(c.data);
    EXPECT_EQ(reassembled, data) << "target=" << target;
    EXPECT_EQ(records_via_chunks(data, target, 1), reference)
        << "target=" << target;
    for (std::size_t i = 0; i < chunks.size(); ++i)
      EXPECT_EQ(chunks[i].index, i);
  }
}

class IngestFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_ingest_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write(std::string_view content) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }

  std::string path_;
};

// ---------------------------------------------------------------- chunker

TEST(IngestChunker, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(plan_chunks("", 8).empty());
}

TEST(IngestChunker, FileSmallerThanOneChunkStaysWhole) {
  const std::string data = "1,a\n2,b\n3,c\n";
  const auto chunks = plan_chunks(data, 8);  // default 64 KiB floor
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].data, data);
}

TEST(IngestChunker, SplitsPlainRecordsOnNewlines) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += std::to_string(i) + ",x\n";
  expect_plan_is_partition(data);
}

TEST(IngestChunker, QuotedNewlineNeverSplitsARecord) {
  // Every record carries a quoted '\n'; a parity-blind chunker would cut
  // half the records in two at some target count.
  std::string data;
  for (int i = 0; i < 60; ++i)
    data += std::to_string(i) + ",\"line one\nline two\"\n";
  expect_plan_is_partition(data);
  for (const auto& record : records_of(data))
    EXPECT_NE(record.find('\n'), std::string::npos);
}

TEST(IngestChunker, EscapedQuotesStraddlingBoundariesKeepParity) {
  // Runs of "" flip parity twice; records alternate between quoted text
  // with escaped quotes and quoted newlines so most candidate offsets
  // land inside some quoted region.
  std::string data;
  for (int i = 0; i < 60; ++i) {
    data += std::to_string(i) + ",\"say \"\"hi\"\"\"\n";
    data += std::to_string(i) + ",\"a\nb\",\"\"\"\"\n";
  }
  expect_plan_is_partition(data);
}

TEST(IngestChunker, QuoteDensePlanSnapsCandidatesToRecordStarts) {
  // Every field is quoted and every record carries escaped quotes and
  // quoted newlines, so quotes sit on both sides of every nominal
  // segment boundary and many candidates fall inside a quoted field.
  // Whatever the thread count that counts the segments, each boundary
  // must be the first record start after its candidate.
  std::string data;
  for (int i = 0; i < 500; ++i)
    data += "\"" + std::to_string(i) + "\",\"say \"\"hi\"\"\nthen \"\"" +
            std::string(static_cast<std::size_t>(i % 7), 'x') +
            "\"\"\",\"\"\"\"\n";
  std::vector<std::size_t> record_starts;
  CsvCursor cursor(data);
  std::string_view record;
  while (cursor.next(record))
    record_starts.push_back(static_cast<std::size_t>(record.data() - data.data()));

  for (std::size_t target : {std::size_t{2}, std::size_t{3}, std::size_t{7},
                             std::size_t{16}, std::size_t{61}, std::size_t{400}}) {
    const std::size_t nominal = data.size() / target;
    std::vector<std::size_t> expected{0};
    for (std::size_t k = 1; k < target; ++k) {
      if (k * nominal <= expected.back()) continue;
      const auto next = std::upper_bound(record_starts.begin(),
                                         record_starts.end(), k * nominal);
      if (next == record_starts.end()) break;
      expected.push_back(*next);
    }
    for (unsigned threads : {1u, 2u, 4u}) {
      const auto chunks = plan_chunks(data, target, 1, threads);
      std::vector<std::size_t> starts;
      for (const Chunk& c : chunks)
        starts.push_back(static_cast<std::size_t>(c.data.data() - data.data()));
      EXPECT_EQ(starts, expected) << "target=" << target << " threads=" << threads;
    }
  }
  expect_plan_is_partition(data);
}

TEST(IngestChunker, TrailingRecordWithoutNewline) {
  const std::string data = "1,a\n2,b\n3,c";  // no trailing '\n'
  expect_plan_is_partition(data);
  EXPECT_EQ(records_of(data),
            (std::vector<std::string>{"1,a", "2,b", "3,c"}));
}

TEST(IngestChunker, ChunkSizeFloorLimitsChunkCount) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += std::to_string(i) + ",x\n";
  // ~590 bytes with a 300-byte floor: at most 1 boundary may be placed.
  const auto chunks = plan_chunks(data, 64, 300);
  EXPECT_LE(chunks.size(), 2u);
}

// ----------------------------------------------------------------- cursor

TEST(IngestCursor, StripsCrLfTerminators) {
  EXPECT_EQ(records_of("1,a\r\n2,b\r\n"),
            (std::vector<std::string>{"1,a", "2,b"}));
}

TEST(IngestCursor, EmptyLinesAreRecords) {
  EXPECT_EQ(records_of("a\n\nb\n"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(IngestCursor, UnterminatedQuoteRunsToEndOfChunk) {
  // Every byte after the stray quote is "inside quotes", including the
  // final newline; split_csv_fields rejects the record either way.
  EXPECT_EQ(records_of("1,\"oops\n2,b\n"),
            (std::vector<std::string>{"1,\"oops\n2,b\n"}));
}

// ----------------------------------------------------------- mapped file

TEST_F(IngestFileTest, MapsRegularFile) {
  write("hello,world\n");
  MappedFile file(path_);
  EXPECT_TRUE(file.mapped());
  EXPECT_EQ(file.view(), "hello,world\n");
}

TEST_F(IngestFileTest, StreamFallbackReadsIdenticalBytes) {
  std::string content;
  for (int i = 0; i < 5000; ++i) content += std::to_string(i) + ",payload\n";
  write(content);
  MappedFile mapped(path_);
  MappedFile streamed(path_, /*force_stream=*/true);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(streamed.mapped());
  EXPECT_EQ(mapped.view(), streamed.view());
  EXPECT_EQ(streamed.view(), content);
}

TEST_F(IngestFileTest, EmptyFileHasEmptyView) {
  write("");
  MappedFile file(path_);
  EXPECT_TRUE(file.view().empty());
  EXPECT_EQ(file.size(), 0u);
}

TEST(IngestMappedFile, MissingFileThrows) {
  EXPECT_THROW(MappedFile("/nonexistent/ingest/file.csv"), IoError);
}

TEST_F(IngestFileTest, MoveTransfersView) {
  write("a,b\n");
  MappedFile src(path_, /*force_stream=*/true);
  MappedFile dst(std::move(src));
  EXPECT_EQ(dst.view(), "a,b\n");
}

// ------------------------------------------------------ zero-copy fields

std::vector<std::string> fields_as_strings(const util::FieldVec& fields) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fields.size(); ++i)
    out.emplace_back(fields[i]);
  return out;
}

TEST(IngestCsvFields, AgreesWithStringSplitter) {
  const std::vector<std::string> lines = {
      "a,b,c",
      ",,",
      "",
      R"("a,b","say ""hi""")",
      "plain,\"quoted\",end",
      "\"multi\nline\",x",
      "\"\",\"\"\"\"",
  };
  util::FieldVec fields;
  for (const auto& line : lines) {
    util::split_csv_fields(line, fields);
    EXPECT_EQ(fields_as_strings(fields), util::split_csv_line(line))
        << "line=" << line;
  }
}

TEST(IngestCsvFields, PlainFieldsAreViewsIntoTheLine) {
  const std::string line = "alpha,\"beta,gamma\",delta";
  util::FieldVec fields;
  util::split_csv_fields(line, fields);
  ASSERT_EQ(fields.size(), 3u);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string_view v = fields[i];
    EXPECT_GE(v.data(), line.data());
    EXPECT_LE(v.data() + v.size(), line.data() + line.size());
  }
}

TEST(IngestCsvFields, EscapedQuotesUseScratchAndSurviveGrowth) {
  // Many escaped-quote fields in one line: the scratch buffer must grow
  // mid-parse without dangling the refs recorded earlier.
  std::string line;
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    if (i > 0) line += ',';
    line += "\"f" + std::to_string(i) + " says \"\"" +
            std::string(16, 'x') + "\"\"\"";
    expected.push_back("f" + std::to_string(i) + " says \"" +
                       std::string(16, 'x') + "\"");
  }
  util::FieldVec fields;
  util::split_csv_fields(line, fields);
  EXPECT_EQ(fields_as_strings(fields), expected);
}

TEST(IngestCsvFields, ReusedAcrossRowsWithoutLeakingState) {
  util::FieldVec fields;
  util::split_csv_fields("a,\"b\"\"c\",d", fields);
  ASSERT_EQ(fields.size(), 3u);
  util::split_csv_fields("x,y", fields);
  EXPECT_EQ(fields_as_strings(fields), (std::vector<std::string>{"x", "y"}));
}

TEST(IngestCsvFields, UnterminatedQuoteThrows) {
  util::FieldVec fields;
  EXPECT_THROW(util::split_csv_fields("\"abc", fields), ParseError);
}

// ------------------------------------------------------ scan differential

/// One record as the byte-at-a-time reference sees it.
struct RefRecord {
  bool has_quote = false;
  /// The fields; nullopt when the record's quotes never close.
  std::optional<std::vector<std::string>> fields;
};

/// Reference tokenizer: a newline outside quotes ends a record, a '\r'
/// before it is dropped, and the fields follow RFC 4180.
std::vector<RefRecord> reference_records(std::string_view data) {
  std::vector<RefRecord> out;
  for (std::size_t start = 0; start < data.size();) {
    std::size_t end = start;
    bool in_quotes = false;
    for (; end < data.size(); ++end) {
      if (data[end] == '"') in_quotes = !in_quotes;
      if (data[end] == '\n' && !in_quotes) break;
    }
    std::string_view record = data.substr(start, end - start);
    start = end + 1;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    std::vector<std::string> fields(1);
    in_quotes = false;
    for (std::size_t k = 0; k < record.size(); ++k) {
      const char c = record[k];
      if (c == '"' && in_quotes && k + 1 < record.size() &&
          record[k + 1] == '"') {
        fields.back() += '"';
        ++k;
      } else if (c == '"') {
        in_quotes = !in_quotes;
      } else if (c == ',' && !in_quotes) {
        fields.emplace_back();
      } else {
        fields.back() += c;
      }
    }
    RefRecord r;
    r.has_quote = record.find('"') != std::string_view::npos;
    if (!in_quotes) r.fields = std::move(fields);
    out.push_back(std::move(r));
  }
  return out;
}

TEST(IngestCursor, MatchesByteReferenceOnRandomBuffers) {
  // Short buffers over an alphabet weighted toward the bytes that steer
  // the scan, cut by tiny chunk plans: the cursor's fields (or its
  // unterminated-quote verdict) and its count of quoted records must
  // match the reference record by record.
  const std::string alphabet = ",,,,\"\"\"\r\r\n\n\nabcxy";
  std::mt19937_64 rng(0x5CA11E57);
  util::FieldVec fields;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::string buffer(rng() % 257, ' ');
    for (char& c : buffer) c = alphabet[rng() % alphabet.size()];
    const std::vector<RefRecord> want = reference_records(buffer);

    std::vector<RefRecord> got;
    std::size_t quoted = 0;
    for (const Chunk& chunk :
         plan_chunks(buffer, 1 + rng() % 8, 1 + rng() % 32)) {
      CsvCursor cursor(chunk.data);
      for (;;) {
        RefRecord r;
        try {
          if (!cursor.next(fields)) break;
          r.fields = fields_as_strings(fields);
        } catch (const ParseError&) {
        }
        got.push_back(std::move(r));
      }
      quoted += cursor.quoted_records();
    }

    const std::string shown = ::testing::PrintToString(buffer);
    ASSERT_EQ(got.size(), want.size()) << shown;
    std::size_t want_quoted = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      want_quoted += want[i].has_quote ? 1 : 0;
      ASSERT_EQ(got[i].fields.has_value(), want[i].fields.has_value())
          << "record " << i << " of " << shown;
      if (want[i].fields)
        ASSERT_EQ(*got[i].fields, *want[i].fields)
            << "record " << i << " of " << shown;
    }
    ASSERT_EQ(quoted, want_quoted) << shown;
  }
}

// ----------------------------------------------------------------- loader

struct TestRecord {
  std::uint64_t id = 0;
  std::string text;

  friend bool operator==(const TestRecord&, const TestRecord&) = default;
};

constexpr char kPoisonText[] = "poison";

TestRecord parse_test_record(const util::FieldVec& row) {
  TestRecord r;
  r.id = util::parse_uint(row[0]);
  r.text = std::string(row[1]);
  if (r.text == kPoisonText)
    throw ParseError("record " + std::to_string(r.id) + " is poisoned");
  return r;
}

const std::vector<std::string> kTestHeader = {"id", "text"};
constexpr char kTestCounter[] = "test.ingest.records";

std::vector<TestRecord> load_test(const std::string& path,
                                  const LoadOptions& options) {
  return load_csv<TestRecord>(path, kTestHeader, "testlog", "test log",
                              kTestCounter, parse_test_record, options);
}

LoadOptions tiny_chunks(unsigned threads) {
  LoadOptions options;
  options.threads = threads;
  options.min_chunk_bytes = 1;  // force a real multi-chunk plan
  return options;
}

struct ParseCounters {
  std::uint64_t lines_total;
  std::uint64_t lines_rejected;
  std::uint64_t records;

  static ParseCounters snap() {
    obs::MetricsRegistry& m = obs::metrics();
    return {m.counter("parse.lines_total").value(),
            m.counter("parse.lines_rejected").value(),
            m.counter(kTestCounter).value()};
  }
  ParseCounters delta_since(const ParseCounters& base) const {
    return {lines_total - base.lines_total,
            lines_rejected - base.lines_rejected, records - base.records};
  }
};

TEST_F(IngestFileTest, LoadsRecordsInFileOrder) {
  std::string content = "id,text\n";
  std::vector<TestRecord> expected;
  for (std::uint64_t i = 0; i < 500; ++i) {
    content += std::to_string(i) + ",row " + std::to_string(i) + "\n";
    expected.push_back({i, "row " + std::to_string(i)});
  }
  write(content);
  for (unsigned threads : {1u, 2u, 8u}) {
    const ParseCounters before = ParseCounters::snap();
    const auto records = load_test(path_, tiny_chunks(threads));
    const ParseCounters d = ParseCounters::snap().delta_since(before);
    EXPECT_EQ(records, expected) << "threads=" << threads;
    EXPECT_EQ(d.lines_total, 500u);
    EXPECT_EQ(d.records, 500u);
    EXPECT_EQ(d.lines_rejected, 0u);
  }
}

TEST_F(IngestFileTest, QuotedFieldsSurviveParallelLoad) {
  std::string content = "id,text\n";
  std::vector<TestRecord> expected;
  for (std::uint64_t i = 0; i < 200; ++i) {
    content += std::to_string(i) + ",\"line one\nsays \"\"hi\"\"\"\n";
    expected.push_back({i, "line one\nsays \"hi\""});
  }
  write(content);
  EXPECT_EQ(load_test(path_, tiny_chunks(8)), expected);
}

TEST_F(IngestFileTest, StreamFallbackLoadsIdentically) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 300; ++i)
    content += std::to_string(i) + ",t\n";
  write(content);
  LoadOptions mapped = tiny_chunks(4);
  LoadOptions streamed = mapped;
  streamed.force_stream = true;
  EXPECT_EQ(load_test(path_, mapped), load_test(path_, streamed));
}

TEST_F(IngestFileTest, EmptyFileThrows) {
  write("");
  try {
    load_test(path_, tiny_chunks(2));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.what(), "parse error: empty CSV file: " + path_);
  }
}

TEST_F(IngestFileTest, HeaderMismatchThrows) {
  write("wrong,header\n1,a\n");
  try {
    load_test(path_, tiny_chunks(2));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.what(), "parse error: unexpected test log header in " + path_);
  }
}

TEST_F(IngestFileTest, HeaderOnlyFileLoadsZeroRecords) {
  write("id,text\n");
  const ParseCounters before = ParseCounters::snap();
  EXPECT_TRUE(load_test(path_, tiny_chunks(4)).empty());
  const ParseCounters d = ParseCounters::snap().delta_since(before);
  EXPECT_EQ(d.lines_total, 0u);
  EXPECT_EQ(d.records, 0u);
}

TEST_F(IngestFileTest, ArityMismatchReportsSerialRowNumber) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 100; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "100,too,many\n";  // data row 101 → file row 102
  for (std::uint64_t i = 101; i < 200; ++i)
    content += std::to_string(i) + ",ok\n";
  write(content);
  for (unsigned threads : {1u, 8u}) {
    const ParseCounters before = ParseCounters::snap();
    try {
      load_test(path_, tiny_chunks(threads));
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.what(), "parse error: row 102 of " + path_ +
                              " has 3 fields, expected 2");
    }
    const ParseCounters d = ParseCounters::snap().delta_since(before);
    EXPECT_EQ(d.lines_total, 101u) << "threads=" << threads;
    EXPECT_EQ(d.records, 100u);
    EXPECT_EQ(d.lines_rejected, 1u);
  }
}

TEST_F(IngestFileTest, RecordErrorPropagatesWithCounters) {
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 50; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "50," + std::string(kPoisonText) + "\n";
  for (std::uint64_t i = 51; i < 100; ++i)
    content += std::to_string(i) + ",ok\n";
  write(content);
  const ParseCounters before = ParseCounters::snap();
  try {
    load_test(path_, tiny_chunks(8));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "parse error: record 50 is poisoned");
  }
  const ParseCounters d = ParseCounters::snap().delta_since(before);
  EXPECT_EQ(d.lines_total, 51u);
  EXPECT_EQ(d.records, 50u);
  EXPECT_EQ(d.lines_rejected, 1u);
}

TEST_F(IngestFileTest, FirstBadRowInFileOrderWinsAcrossChunks) {
  // Two bad rows in different chunks: whatever order the workers hit
  // them, the error must name the earlier one, like the serial reader.
  std::string content = "id,text\n";
  for (std::uint64_t i = 0; i < 40; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "40," + std::string(kPoisonText) + "\n";  // earlier failure
  for (std::uint64_t i = 41; i < 80; ++i)
    content += std::to_string(i) + ",ok\n";
  content += "80,too,many\n";  // later failure, different kind
  write(content);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      load_test(path_, tiny_chunks(8));
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), "parse error: record 40 is poisoned");
    }
  }
}

TEST_F(IngestFileTest, QuotedRecordsAreCounted) {
  // Every seventh record carries a quote (some with a quoted comma or
  // newline); ingest.records_quoted counts exactly those records once
  // per load, for any chunking.
  std::string content = "id,text\n";
  std::vector<TestRecord> expected;
  std::uint64_t quoted = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const std::string id = std::to_string(i);
    if (i % 7 == 3) {
      content += id + ",\"q," + id + (i % 2 ? "\n" : "") + "\"\"x\"\"\"\n";
      expected.push_back({i, "q," + id + (i % 2 ? "\n" : "") + "\"x\""});
      ++quoted;
    } else {
      content += id + ",plain " + id + "\n";
      expected.push_back({i, "plain " + id});
    }
  }
  write(content);
  obs::Counter& counter = obs::metrics().counter("ingest.records_quoted");
  for (unsigned threads : {1u, 4u}) {
    const std::uint64_t before = counter.value();
    EXPECT_EQ(load_test(path_, tiny_chunks(threads)), expected);
    EXPECT_EQ(counter.value() - before, quoted) << "threads=" << threads;
  }
  EXPECT_EQ(quoted, 43u);
}

TEST_F(IngestFileTest, IngestCountersAdvance) {
  write("id,text\n1,a\n2,b\n");
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t bytes_before = m.counter("ingest.bytes_mapped").value();
  const std::uint64_t chunks_before = m.counter("ingest.chunks").value();
  load_test(path_, tiny_chunks(2));
  EXPECT_EQ(m.counter("ingest.bytes_mapped").value() - bytes_before,
            std::string("id,text\n1,a\n2,b\n").size());
  EXPECT_GE(m.counter("ingest.chunks").value() - chunks_before, 1u);
}

}  // namespace
}  // namespace failmine::ingest
