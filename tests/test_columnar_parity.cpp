// Row vs columnar loader parity: the columnar loaders must be exact
// against the row path — tables that round-trip to the row records,
// the same rejected-row diagnostics and counter deltas, stable
// dictionary codes for any ingest thread count — on a simulated Mira
// trace (CSV round trip), and the same order among equal sort keys on
// small hand-written files. The analyses both backends answer are checked
// against a naive reference in test_columnar_differential.cpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "columnar/builder.hpp"
#include "columnar/load.hpp"
#include "obs/metrics.hpp"
#include "raslog/event.hpp"
#include "sim/simulator.hpp"
#include "tasklog/task.hpp"
#include "util/error.hpp"

namespace failmine {
namespace {

class ColumnarParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("failmine_columnar_parity_" + std::to_string(::getpid())))
            .string());
    std::filesystem::create_directories(*dir_);
    sim::SimConfig config = sim::SimConfig::test_scale();
    config.scale = 0.002;
    trace_ = new sim::SimResult(sim::simulate(config));
    machine_ = new topology::MachineConfig(config.machine);
    sim::write_dataset(*trace_, *dir_);
    columnar_ = new columnar::ColumnarDataset(
        columnar::load_dataset(*dir_, *machine_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete columnar_;
    delete trace_;
    delete machine_;
    delete dir_;
    columnar_ = nullptr;
    trace_ = nullptr;
    machine_ = nullptr;
    dir_ = nullptr;
  }

  static std::string path(const char* name) { return *dir_ + "/" + name; }

  static std::string* dir_;
  static sim::SimResult* trace_;
  static topology::MachineConfig* machine_;
  static columnar::ColumnarDataset* columnar_;
};

std::string* ColumnarParity::dir_ = nullptr;
sim::SimResult* ColumnarParity::trace_ = nullptr;
topology::MachineConfig* ColumnarParity::machine_ = nullptr;
columnar::ColumnarDataset* ColumnarParity::columnar_ = nullptr;

TEST_F(ColumnarParity, LoadRoundTripsEveryTable) {
  // Parity target is the row-path CSV load: the I/O doubles are printed
  // at fixed precision by write_csv, so the in-memory trace is not the
  // reference — what read_csv reconstructs is.
  EXPECT_EQ(columnar_->jobs.to_records(), trace_->job_log.jobs());
  EXPECT_EQ(columnar_->ras.to_records(), trace_->ras_log.events());
  EXPECT_EQ(columnar_->tasks.to_records(), trace_->task_log.tasks());
  EXPECT_EQ(columnar_->io.to_records(),
            iolog::IoLog::read_csv(path("io.csv")).records());
}

TEST_F(ColumnarParity, DictionaryCodesStableAcrossThreadCounts) {
  ingest::LoadOptions serial;
  serial.threads = 1;
  ingest::LoadOptions parallel;
  parallel.threads = 8;
  parallel.min_chunk_bytes = 512;  // force a genuinely multi-chunk plan

  const columnar::JobTable a =
      columnar::load_job_table(path("jobs.csv"), serial);
  const columnar::JobTable b =
      columnar::load_job_table(path("jobs.csv"), parallel);
  EXPECT_EQ(a.queue_dict.names(), b.queue_dict.names());
  EXPECT_EQ(a.queue_code, b.queue_code);

  const columnar::RasTable ra =
      columnar::load_ras_table(path("ras.csv"), *machine_, serial);
  const columnar::RasTable rb =
      columnar::load_ras_table(path("ras.csv"), *machine_, parallel);
  EXPECT_EQ(ra.message_dict.names(), rb.message_dict.names());
  EXPECT_EQ(ra.message_code, rb.message_code);
  EXPECT_EQ(ra.location, rb.location);
}

TEST_F(ColumnarParity, DictionaryRoundTripsAgainstRowStrings) {
  const std::vector<joblog::JobRecord>& jobs = trace_->job_log.jobs();
  const columnar::JobTable& t = columnar_->jobs;
  ASSERT_EQ(t.rows(), jobs.size());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const std::string& decoded = t.queue_dict.name(t.queue_code[i]);
    EXPECT_EQ(decoded, jobs[i].queue);
    EXPECT_EQ(*t.queue_dict.find(decoded), t.queue_code[i]);
  }
}

/// Appends `bad_row` to a copy of `file`, then loads the copy through the
/// row loader and the columnar loader: both must throw the same
/// ParseError and each must count exactly one rejected line.
template <class RowLoad, class ColumnLoad>
void expect_same_rejection(const std::string& file, const std::string& bad_row,
                           RowLoad&& row_load, ColumnLoad&& column_load) {
  const std::string corrupted = file + ".corrupted.csv";
  std::filesystem::copy_file(file, corrupted,
                             std::filesystem::copy_options::overwrite_existing);
  { std::ofstream(corrupted, std::ios::app) << bad_row << "\n"; }

  obs::Counter& rejected = obs::metrics().counter("parse.lines_rejected");
  std::string row_error;
  std::uint64_t before = rejected.value();
  try {
    row_load(corrupted);
    ADD_FAILURE() << "row path accepted " << bad_row;
  } catch (const ParseError& e) {
    row_error = e.what();
  }
  EXPECT_EQ(rejected.value() - before, 1u);

  before = rejected.value();
  try {
    column_load(corrupted);
    ADD_FAILURE() << "columnar path accepted " << bad_row;
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), row_error);
  }
  EXPECT_EQ(rejected.value() - before, 1u);
  std::filesystem::remove(corrupted);
}

TEST_F(ColumnarParity, CorruptRowFailsLikeRowPathWithSameCounters) {
  expect_same_rejection(
      path("jobs.csv"), "999,bad,row",
      [](const std::string& f) { joblog::JobLog::read_csv(f); },
      [](const std::string& f) { columnar::load_job_table(f); });
}

TEST_F(ColumnarParity, ThirtyTwoBitOverflowFailsLikeRowPathWithSameCounters) {
  // Each row once loaded as a valid-looking record: user 7, 512 nodes
  // and exit code 0 for the job; sequence 0 and 0 files accessed.
  expect_same_rejection(
      path("jobs.csv"),
      "999999,4294967303,1,prod-short,2013-04-09 00:00:00,"
      "2013-04-09 00:00:01,2013-04-09 00:00:02,4294967808,1,60,4294967296,"
      "0,SUCCESS,0",
      [](const std::string& f) { joblog::JobLog::read_csv(f); },
      [](const std::string& f) { columnar::load_job_table(f); });
  expect_same_rejection(
      path("tasks.csv"),
      "999999,1,4294967296,2013-04-09 00:00:00,2013-04-09 00:00:01,512,16,"
      "0,0",
      [](const std::string& f) { tasklog::TaskLog::read_csv(f); },
      [](const std::string& f) { columnar::load_task_table(f); });
  expect_same_rejection(
      path("io.csv"), "999999,1,1,0.5,0.5,4294967296,1",
      [](const std::string& f) { iolog::IoLog::read_csv(f); },
      [](const std::string& f) { columnar::load_io_table(f); });
}

// Row order among equal sort keys. RasLog and TaskLog accept duplicate
// keys, so both engines must agree on where duplicates go: each keeps
// file order among equal keys. One record with a later key comes first
// in the file, so both engines have to sort.

/// Writes `header` and `rows` to a fresh CSV file; returns its path.
std::string write_csv_file(const char* name, const std::string& header,
                           const std::vector<std::string>& rows) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            (std::string("failmine_row_order_") + name + "_" +
                             std::to_string(::getpid()) + ".csv"))
                               .string();
  std::ofstream out(path);
  out << header << "\n";
  for (const std::string& row : rows) out << row << "\n";
  return path;
}

/// Thread counts and chunk sizes the loaders run at: the serial readers
/// and one chunk, then many small chunks on 4 workers.
std::vector<ingest::LoadOptions> row_order_options() {
  ingest::LoadOptions serial;
  serial.threads = 1;
  ingest::LoadOptions parallel;
  parallel.threads = 4;
  parallel.min_chunk_bytes = 64;
  return {serial, parallel};
}

TEST(ColumnarRowOrder, RasEqualKeysKeepFileOrderInBothEngines) {
  const topology::MachineConfig machine = topology::MachineConfig::mira();
  std::vector<std::string> rows = {
      "8,2013-04-09 00:00:10,00040020,INFO,MC,SOFTWARE,R00,,later key"};
  for (int i = 0; i < 40; ++i)
    rows.push_back("7,2013-04-09 00:00:00,00040020,WARN,MC,SOFTWARE,R00-M" +
                   std::to_string(i % 2) + ",,duplicate " + std::to_string(i));
  const std::string path = write_csv_file(
      "ras",
      "record_id,timestamp,message_id,severity,component,category,location,"
      "job_id,text",
      rows);
  for (const ingest::LoadOptions& options : row_order_options()) {
    const raslog::RasLog log =
        raslog::RasLog::read_csv(path, machine, options);
    const columnar::RasTable table =
        columnar::load_ras_table(path, machine, options);
    ASSERT_EQ(log.size(), 41u);
    for (std::size_t i = 0; i < 40; ++i)
      EXPECT_EQ(log.events()[i].text, "duplicate " + std::to_string(i));
    EXPECT_EQ(table.to_records(), log.events()) << options.threads;
  }
  std::filesystem::remove(path);
}

TEST(ColumnarRowOrder, TaskEqualKeysKeepFileOrderInBothEngines) {
  std::vector<std::string> rows = {
      "1,9,0,2013-04-09 00:00:00,2013-04-09 00:00:05,512,16,0,0"};
  for (int i = 0; i < 40; ++i)
    rows.push_back(std::to_string(100 + i) +
                   ",5,3,2013-04-09 00:00:00,2013-04-09 00:00:0" +
                   std::to_string(i % 10) + ",512,16,0,0");
  const std::string path = write_csv_file(
      "tasks",
      "task_id,job_id,sequence,start_time,end_time,nodes_used,"
      "ranks_per_node,exit_code,exit_signal",
      rows);
  for (const ingest::LoadOptions& options : row_order_options()) {
    const tasklog::TaskLog log = tasklog::TaskLog::read_csv(path, options);
    const columnar::TaskTable table = columnar::load_task_table(path, options);
    ASSERT_EQ(log.size(), 41u);
    for (std::size_t i = 0; i < 40; ++i)
      EXPECT_EQ(log.tasks()[i].task_id, 100 + i);
    EXPECT_EQ(table.to_records(), log.tasks()) << options.threads;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace failmine
