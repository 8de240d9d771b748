// Row vs columnar loader parity: the columnar loaders must be exact
// against the row path — tables that round-trip to the row records,
// the same rejected-row diagnostics and counter deltas, stable
// dictionary codes for any ingest thread count — on a simulated Mira
// trace (CSV round trip). The analyses both backends answer are checked
// against a naive reference in test_columnar_differential.cpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "columnar/builder.hpp"
#include "columnar/load.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
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
  EXPECT_EQ(ra.location_dict.names(), rb.location_dict.names());
  EXPECT_EQ(ra.location_code, rb.location_code);
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

}  // namespace
}  // namespace failmine
