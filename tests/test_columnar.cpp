// Unit tests for the columnar record store: dictionary encoding and
// chunk merge, bitmap index, delta timestamp column, and
// the builders' deterministic chunk-order merge (including a threaded
// build and the threaded RAS merge, which is what the TSan CI job
// exercises).

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "columnar/bitmap.hpp"
#include "columnar/builder.hpp"
#include "columnar/column.hpp"
#include "columnar/dictionary.hpp"
#include "columnar/table.hpp"
#include "obs/metrics.hpp"
#include "sim/synthetic.hpp"
#include "util/error.hpp"

namespace failmine::columnar {
namespace {

TEST(ColumnarDictionary, AssignsCodesInFirstSeenOrder) {
  Dictionary d;
  EXPECT_EQ(d.encode("prod"), 0u);
  EXPECT_EQ(d.encode("backfill"), 1u);
  EXPECT_EQ(d.encode("prod"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.name(0), "prod");
  EXPECT_EQ(d.name(1), "backfill");
  EXPECT_EQ(d.find("backfill"), std::optional<std::uint32_t>(1u));
  EXPECT_EQ(d.find("absent"), std::nullopt);
  EXPECT_THROW(d.name(2), DomainError);
  EXPECT_GT(d.bytes(), 0u);
}

TEST(ColumnarDictionary, MergeMatchesSerialFirstSeenPass) {
  // Two chunk-local dictionaries merged in chunk order must reproduce
  // the code assignment of one serial pass over both chunks' strings.
  const std::vector<std::string> chunk0 = {"a", "b", "a", "c"};
  const std::vector<std::string> chunk1 = {"d", "b", "e", "a"};

  Dictionary serial;
  for (const auto& s : chunk0) serial.encode(s);
  for (const auto& s : chunk1) serial.encode(s);

  Dictionary first, second;
  for (const auto& s : chunk0) first.encode(s);
  std::vector<std::uint32_t> codes1;
  for (const auto& s : chunk1) codes1.push_back(second.encode(s));

  std::vector<std::uint32_t> remap;
  first.merge_from(second, remap);
  EXPECT_EQ(first.names(), serial.names());
  for (std::size_t i = 0; i < chunk1.size(); ++i)
    EXPECT_EQ(remap[codes1[i]], *serial.find(chunk1[i])) << "i=" << i;
}

TEST(ColumnarDictionary, RoundTripsCodeStringCode) {
  Dictionary d;
  const std::vector<std::string> values = {"x", "yy", "", "zzz"};
  for (const auto& s : values) d.encode(s);
  for (std::uint32_t c = 0; c < d.size(); ++c)
    EXPECT_EQ(*d.find(d.name(c)), c);  // code -> string -> same code
}

TEST(ColumnarDictionary, FindOnEmptyDictionary) {
  const Dictionary d;
  EXPECT_EQ(d.find("prod"), std::nullopt);
  EXPECT_EQ(d.find(""), std::nullopt);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.bytes(), 0u);
  EXPECT_THROW(d.name(0), DomainError);
}

/// Distinct names: the empty name, short names that fit the small-string
/// buffer and location-like names longer than 15 bytes.
std::string stress_name(std::size_t i) {
  if (i == 0) return "";
  if (i % 3 == 0) return "q" + std::to_string(i);
  return "R" + std::to_string(i % 48) + "-M" + std::to_string(i % 2) +
         "-N" + std::to_string(i) + "-J" + std::to_string(i % 32);
}

TEST(ColumnarDictionary, FlatIndexKeepsCodesAcrossGrowths) {
  // 120k entries take the index from its first allocation through about
  // fourteen doublings.
  constexpr std::size_t kNames = 120'000;
  Dictionary d;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNames; ++i) {
    names.push_back(stress_name(i));
    ASSERT_EQ(d.encode(names.back()), i) << "name '" << names.back() << "'";
  }
  EXPECT_EQ(d.size(), kNames);
  EXPECT_EQ(d.names(), names);
  for (std::uint32_t c = 0; c < kNames; ++c) {
    ASSERT_EQ(d.encode(names[c]), c);  // hits append nothing
    ASSERT_EQ(d.find(names[c]), std::optional<std::uint32_t>(c));
    ASSERT_EQ(d.name(c), names[c]);
  }
  EXPECT_EQ(d.size(), kNames);
  EXPECT_EQ(d.find(""), std::optional<std::uint32_t>(0u));
  EXPECT_EQ(d.find("R0-M0-N0-J0-absent"), std::nullopt);
  EXPECT_EQ(d.find("q1"), std::nullopt);  // i % 3 != 0 never gets a short name
  EXPECT_GE(d.bytes(), kNames * sizeof(std::string));
}

TEST(ColumnarDictionary, MergeOfOverlappingDictionariesMatchesSerialPass) {
  // Five chunk dictionaries over sliding, overlapping windows of 100k
  // names, with repeats inside each chunk: folding them in chunk order
  // must give the serial first-seen codes, and every remap must send a
  // chunk code to the serial code of its name.
  constexpr std::size_t kChunks = 5;
  std::vector<std::vector<std::string>> chunks(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c)
    for (std::size_t i = 0; i < 40'000; ++i)
      chunks[c].push_back(stress_name((c * 15'000 + i * 7) % 100'000));

  Dictionary serial;
  for (const auto& chunk : chunks)
    for (const auto& s : chunk) serial.encode(s);

  std::vector<Dictionary> local(kChunks);
  std::vector<std::vector<std::uint32_t>> local_codes(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c)
    for (const auto& s : chunks[c]) local_codes[c].push_back(local[c].encode(s));

  Dictionary merged;
  std::vector<std::uint32_t> remap;
  for (std::size_t c = 0; c < kChunks; ++c) {
    merged.merge_from(local[c], remap);
    ASSERT_EQ(remap.size(), local[c].size());
    for (std::size_t i = 0; i < chunks[c].size(); ++i)
      ASSERT_EQ(remap[local_codes[c][i]], *serial.find(chunks[c][i]))
          << "chunk " << c << " row " << i;
  }
  EXPECT_EQ(merged.names(), serial.names());
}

TEST(ColumnarBitmap, SetTestCountForEach) {
  Bitmap b(130);  // spans three words
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i : {0u, 63u, 64u, 129u}) b.set(i);
  EXPECT_TRUE(b.test(63));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
}

TEST(ColumnarTimestamp, DeltaEncodesNonDecreasingValues) {
  TimestampColumn c;
  const std::vector<util::UnixSeconds> values = {100, 100, 105, 400, 400};
  for (auto t : values) c.push_back(t);
  c.seal();
  EXPECT_TRUE(c.delta_encoded());
  EXPECT_EQ(c.decode_all(), values);
  EXPECT_EQ(c.front(), 100);
  EXPECT_EQ(c.back(), 400);
  EXPECT_EQ(c.at(3), 400);
  EXPECT_THROW(c.push_back(500), DomainError);  // sealed
}

TEST(ColumnarTimestamp, FallsBackToPlainWhenUnsorted) {
  TimestampColumn c;
  for (auto t : {50, 40, 60}) c.push_back(t);
  c.seal();
  EXPECT_FALSE(c.delta_encoded());
  EXPECT_EQ(c.decode_all(),
            (std::vector<util::UnixSeconds>{50, 40, 60}));  // lossless
}

TEST(ColumnarTimestamp, FallsBackToPlainOnHugeStep) {
  TimestampColumn c;
  c.push_back(0);
  c.push_back(static_cast<util::UnixSeconds>(UINT32_MAX) + 1);
  c.seal();
  EXPECT_FALSE(c.delta_encoded());
  EXPECT_EQ(c.back(), static_cast<util::UnixSeconds>(UINT32_MAX) + 1);
}

joblog::JobRecord make_job(std::uint64_t id, util::UnixSeconds start,
                           const char* queue,
                           joblog::ExitClass cls = joblog::ExitClass::kSuccess) {
  joblog::JobRecord j;
  j.job_id = id;
  j.user_id = static_cast<std::uint32_t>(id % 7);
  j.project_id = static_cast<std::uint32_t>(id % 3);
  j.queue = queue;
  j.submit_time = start - 30;
  j.start_time = start;
  j.end_time = start + 600;
  j.nodes_used = 512;
  j.task_count = 1;
  j.requested_walltime = 3600;
  j.exit_class = cls;
  if (is_failure(cls)) j.exit_code = 1;
  return j;
}

TEST(ColumnarBuilder, RoundTripsJobRecords) {
  JobTableBuilder b;
  std::vector<joblog::JobRecord> expected;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    expected.push_back(make_job(i, 1000 + 10 * static_cast<int>(i), "prod",
                                i % 2 ? joblog::ExitClass::kSuccess
                                      : joblog::ExitClass::kSystemHardware));
    b.add(expected.back());
  }
  std::vector<JobTableBuilder> chunks;
  chunks.push_back(std::move(b));
  const JobTable t = JobTableBuilder::merge(std::move(chunks));
  ASSERT_EQ(t.rows(), expected.size());
  EXPECT_EQ(t.to_records(), expected);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(t.row(i), expected[i]) << "row " << i;
  EXPECT_TRUE(t.start_time.delta_encoded());
  EXPECT_EQ(t.failed.count(), 2u);  // ids 2 and 4
  EXPECT_GT(t.bytes(), 0u);
}

TEST(ColumnarBuilder, MergeSortsOutOfOrderChunksCanonically) {
  // Chunks whose concatenation is NOT (start_time, job_id)-sorted: merge
  // must gather them into canonical order, like JobLog::finalize.
  JobTableBuilder b0, b1;
  const joblog::JobRecord early = make_job(7, 1000, "prod");
  const joblog::JobRecord mid = make_job(2, 2000, "backfill");
  const joblog::JobRecord tie = make_job(1, 2000, "prod");
  b0.add(mid);
  b1.add(early);
  b1.add(tie);
  std::vector<JobTableBuilder> chunks;
  chunks.push_back(std::move(b0));
  chunks.push_back(std::move(b1));
  const JobTable t = JobTableBuilder::merge(std::move(chunks));
  EXPECT_EQ(t.to_records(),
            (std::vector<joblog::JobRecord>{early, tie, mid}));
  // Dictionary codes are first-seen in CHUNK order (b0 then b1),
  // independent of the row sort: backfill=0, prod=1.
  EXPECT_EQ(t.queue_dict.name(0), "backfill");
  EXPECT_EQ(t.queue_dict.name(1), "prod");
}

TEST(ColumnarBuilder, RejectsTimestampSpansBeyond32Bits) {
  JobTableBuilder b;
  joblog::JobRecord j = make_job(1, 1000, "prod");
  j.end_time = j.start_time + (static_cast<std::int64_t>(UINT32_MAX) + 2);
  EXPECT_THROW(b.add(j), DomainError);
}

TEST(ColumnarBuilder, FlushesBuildMetrics) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t rows_before = m.counter("columnar.rows").value();
  const std::uint64_t bytes_before = m.counter("columnar.bytes").value();
  const std::uint64_t dict_before = m.counter("columnar.dict_entries").value();
  const std::uint64_t sorted_before = m.counter("columnar.merge_sorted").value();
  const std::uint64_t plain_before =
      m.counter("columnar.timestamps_plain").value();

  JobTableBuilder b;
  b.add(make_job(1, 1000, "prod"));
  b.add(make_job(2, 1010, "backfill"));
  std::vector<JobTableBuilder> chunks;
  chunks.push_back(std::move(b));
  const JobTable t = JobTableBuilder::merge(std::move(chunks));

  EXPECT_EQ(m.counter("columnar.rows").value() - rows_before, t.rows());
  EXPECT_GT(m.counter("columnar.bytes").value(), bytes_before);
  EXPECT_EQ(m.counter("columnar.dict_entries").value() - dict_before, 2u);
  // In-order chunks and a delta-sealed start column: no fallback.
  EXPECT_EQ(m.counter("columnar.merge_sorted").value() - sorted_before, 0u);
  EXPECT_EQ(m.counter("columnar.timestamps_plain").value() - plain_before, 0u);
}

TEST(ColumnarBuilder, ThreadedChunkBuildIsDeterministic) {
  // Builders filled on distinct threads (no shared state), merged in
  // chunk order, must produce the same table as one serial builder —
  // codes included. This is the pattern the parallel CSV load runs.
  sim::SyntheticJobStreamConfig config;
  config.rows = 40'000;
  config.users = 64;

  JobTableBuilder serial;
  sim::generate_job_stream(config,
                           [&](const joblog::JobRecord& j) { serial.add(j); });
  std::vector<JobTableBuilder> serial_chunks;
  serial_chunks.push_back(std::move(serial));
  const JobTable expected = JobTableBuilder::merge(std::move(serial_chunks));

  // Split the same stream into 4 contiguous chunks built concurrently.
  constexpr std::size_t kChunks = 4;
  std::vector<JobTableBuilder> chunks(kChunks);
  {
    std::vector<std::thread> workers;
    const std::uint64_t per = config.rows / kChunks;
    for (std::size_t c = 0; c < kChunks; ++c) {
      workers.emplace_back([&, c] {
        const std::uint64_t begin = per * c;
        const std::uint64_t end = c + 1 == kChunks ? config.rows : per * (c + 1);
        std::uint64_t i = 0;
        sim::generate_job_stream(config, [&](const joblog::JobRecord& j) {
          if (i >= begin && i < end) chunks[c].add(j);
          ++i;
        });
      });
    }
    for (auto& w : workers) w.join();
  }
  const JobTable merged = JobTableBuilder::merge(std::move(chunks));

  ASSERT_EQ(merged.rows(), expected.rows());
  EXPECT_EQ(merged.queue_code, expected.queue_code);
  EXPECT_EQ(merged.queue_dict.names(), expected.queue_dict.names());
  EXPECT_EQ(merged.job_id, expected.job_id);
  EXPECT_EQ(merged.user_id, expected.user_id);
  EXPECT_EQ(merged.exit_class_code, expected.exit_class_code);
  EXPECT_EQ(merged.start_time.decode_all(), expected.start_time.decode_all());
  EXPECT_EQ(merged.failed.words(), expected.failed.words());
}

TEST(ColumnarBuilder, RasRoundTripKeepsLocationsAligned) {
  const topology::MachineConfig machine{};
  RasTableBuilder b(machine);
  std::vector<raslog::RasEvent> expected;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    raslog::RasEvent e;
    e.record_id = i;
    e.timestamp = 5000 + static_cast<int>(i);
    e.message_id = i % 2 ? "00040020" : "00080030";
    e.severity = i == 3 ? raslog::Severity::kFatal : raslog::Severity::kWarn;
    e.component = raslog::Component::kMc;
    e.category = raslog::Category::kSoftware;
    e.location = i % 2 ? topology::Location::rack(0, 0)
                       : topology::Location::rack(1, 1);
    if (i == 2) e.job_id = 77;
    e.text = "event text " + std::to_string(i);
    expected.push_back(e);
    b.add(e);
  }
  std::vector<RasTableBuilder> chunks;
  chunks.push_back(std::move(b));
  const RasTable t = RasTableBuilder::merge(std::move(chunks));
  ASSERT_EQ(t.rows(), expected.size());
  EXPECT_EQ(t.to_records(), expected);
  ASSERT_EQ(t.locations.size(), t.location_dict.size());
  for (std::size_t i = 0; i < t.rows(); ++i)
    EXPECT_EQ(t.locations[t.location_code[i]].to_string(),
              t.location_dict.name(t.location_code[i]));
  EXPECT_EQ(t.severity_bits[static_cast<std::size_t>(raslog::Severity::kFatal)]
                .count(),
            1u);
  EXPECT_EQ(t.has_job.count(), 1u);
}

TEST(ColumnarBuilder, RasMergeSortFallbackMatchesOneBuilder) {
  // Later chunks hold earlier timestamps, and record ids fall as times
  // repeat, so the concatenated chunks are out of (timestamp, record_id)
  // order and the merge must permute every column — text, locations and
  // job ids included. At 1 and 4 threads the table must equal the one a
  // single builder makes from the same rows.
  const topology::MachineConfig machine{};
  constexpr std::size_t kChunks = 6;
  constexpr std::size_t kPerChunk = 700;
  const char* const messages[] = {"00040020", "00080030", "000C0001"};
  std::vector<std::vector<raslog::RasEvent>> parts(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (std::size_t i = 0; i < kPerChunk; ++i) {
      const std::size_t k = c * kPerChunk + i;
      raslog::RasEvent e;
      e.record_id = 1'000'000 - k;
      e.timestamp = static_cast<util::UnixSeconds>(
          1'000'000 - 10'000 * static_cast<std::int64_t>(c) +
          static_cast<std::int64_t>(i / 4));
      e.message_id = messages[k % 3];
      e.severity = static_cast<raslog::Severity>(k % 3);
      e.component = raslog::kAllComponents[k % std::size(raslog::kAllComponents)];
      e.category = raslog::kAllCategories[k % std::size(raslog::kAllCategories)];
      e.location = topology::Location::from_node_index(
          static_cast<topology::NodeIndex>((k * 37) % 1500), machine);
      if (k % 5 != 0) e.job_id = 500 + k % 97;
      e.text = std::string(k % 23, static_cast<char>('a' + k % 26));
      parts[c].push_back(e);
    }
  }

  RasTableBuilder whole(machine);
  for (const auto& part : parts)
    for (const auto& e : part) whole.add(e);
  std::vector<RasTableBuilder> one;
  one.push_back(std::move(whole));
  const RasTable expected = RasTableBuilder::merge(std::move(one));
  ASSERT_EQ(expected.rows(), kChunks * kPerChunk);
  ASSERT_TRUE(expected.timestamp.delta_encoded());

  obs::Counter& sorted_merges = obs::metrics().counter("columnar.merge_sorted");
  obs::Counter& plain_seals = obs::metrics().counter("columnar.timestamps_plain");
  for (const unsigned threads : {1u, 4u}) {
    std::vector<RasTableBuilder> chunks;
    for (const auto& part : parts) {
      chunks.emplace_back(machine);
      for (const auto& e : part) chunks.back().add(e);
    }
    const std::uint64_t sorted_before = sorted_merges.value();
    const std::uint64_t plain_before = plain_seals.value();
    const RasTable t = RasTableBuilder::merge(std::move(chunks), threads);
    EXPECT_EQ(sorted_merges.value() - sorted_before, 1u) << threads;
    EXPECT_EQ(plain_seals.value() - plain_before, 0u) << threads;

    EXPECT_EQ(t.to_records(), expected.to_records()) << threads;
    EXPECT_EQ(t.record_id, expected.record_id) << threads;
    EXPECT_EQ(t.message_code, expected.message_code) << threads;
    EXPECT_EQ(t.message_dict.names(), expected.message_dict.names()) << threads;
    EXPECT_EQ(t.location_code, expected.location_code) << threads;
    EXPECT_EQ(t.location_dict.names(), expected.location_dict.names())
        << threads;
    EXPECT_EQ(t.locations, expected.locations) << threads;
    EXPECT_EQ(t.job_id, expected.job_id) << threads;
    EXPECT_EQ(t.has_job.words(), expected.has_job.words()) << threads;
    for (std::size_t s = 0; s < t.severity_bits.size(); ++s)
      EXPECT_EQ(t.severity_bits[s].words(), expected.severity_bits[s].words())
          << threads;
    ASSERT_EQ(t.text.size(), expected.text.size());
    for (std::size_t i = 0; i < t.rows(); ++i)
      ASSERT_EQ(t.text.view(i), expected.text.view(i)) << "row " << i;
  }
}

TEST(ColumnarBuilder, TaskAndIoRoundTrip) {
  TaskTableBuilder tb;
  std::vector<tasklog::TaskRecord> tasks;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    tasklog::TaskRecord r;
    r.task_id = 100 + i;
    r.job_id = i;
    r.sequence = 0;
    r.start_time = 3000 + static_cast<int>(i);
    r.end_time = r.start_time + 120;
    r.nodes_used = 256;
    r.ranks_per_node = 16;
    if (i == 2) r.exit_signal = 9;
    tasks.push_back(r);
    tb.add(r);
  }
  std::vector<TaskTableBuilder> tchunks;
  tchunks.push_back(std::move(tb));
  const TaskTable tt = TaskTableBuilder::merge(std::move(tchunks));
  EXPECT_EQ(tt.to_records(), tasks);
  EXPECT_EQ(tt.failed.count(), 1u);

  IoTableBuilder ib;
  std::vector<iolog::IoRecord> ios;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    iolog::IoRecord r;
    r.job_id = i;
    r.bytes_read = 1 << i;
    r.bytes_written = 1 << (i + 1);
    r.read_time_seconds = 0.5 * static_cast<double>(i);
    r.write_time_seconds = 0.25;
    r.files_accessed = 3;
    r.ranks_doing_io = 8;
    ios.push_back(r);
    ib.add(r);
  }
  std::vector<IoTableBuilder> ichunks;
  ichunks.push_back(std::move(ib));
  const IoTable it = IoTableBuilder::merge(std::move(ichunks));
  EXPECT_EQ(it.to_records(), ios);
}

}  // namespace
}  // namespace failmine::columnar
