// Integration tests for the full simulator: cross-log consistency
// guarantees documented in sim/simulator.hpp.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "util/error.hpp"

namespace failmine::sim {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new SimConfig(SimConfig::test_scale());
    result_ = new SimResult(simulate(*config_));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete config_;
    result_ = nullptr;
    config_ = nullptr;
  }
  static SimConfig* config_;
  static SimResult* result_;
};

SimConfig* SimulatorTest::config_ = nullptr;
SimResult* SimulatorTest::result_ = nullptr;

TEST_F(SimulatorTest, AllLogsNonEmpty) {
  EXPECT_GT(result_->job_log.size(), 1000u);
  EXPECT_GT(result_->task_log.size(), result_->job_log.size());
  EXPECT_GT(result_->ras_log.size(), 10000u);
  EXPECT_GT(result_->io_log.size(), 100u);
}

TEST_F(SimulatorTest, TaskCountsMatchJobRecords) {
  for (const auto& j : result_->job_log.jobs()) {
    EXPECT_EQ(result_->task_log.task_count(j.job_id), j.task_count)
        << "job " << j.job_id;
  }
}

TEST_F(SimulatorTest, TasksLieWithinJobWindows) {
  for (const auto& t : result_->task_log.tasks()) {
    const auto& j = result_->job_log.by_id(t.job_id);
    EXPECT_GE(t.start_time, j.start_time);
    EXPECT_LE(t.end_time, j.end_time);
    EXPECT_LE(t.start_time, t.end_time);
  }
}

TEST_F(SimulatorTest, LastTaskCarriesJobExitStatus) {
  for (const auto& j : result_->job_log.jobs()) {
    const auto tasks = result_->task_log.tasks_of_job(j.job_id);
    ASSERT_FALSE(tasks.empty());
    EXPECT_EQ(tasks.back().exit_code, j.exit_code);
    EXPECT_EQ(tasks.back().exit_signal, j.exit_signal);
    EXPECT_EQ(tasks.back().end_time, j.end_time);
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
      EXPECT_EQ(tasks[i].exit_code, 0);
      EXPECT_EQ(tasks[i].exit_signal, 0);
    }
  }
}

TEST_F(SimulatorTest, IoRecordsReferToExistingJobs) {
  for (const auto& r : result_->io_log.records())
    EXPECT_TRUE(result_->job_log.contains(r.job_id));
}

TEST_F(SimulatorTest, RasLogIsTimeSortedWithUniqueAscendingIds) {
  const auto& events = result_->ras_log.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].timestamp, events[i - 1].timestamp);
    EXPECT_GT(events[i].record_id, events[i - 1].record_id);
  }
}

TEST_F(SimulatorTest, SystemFailuresCoincideWithFatalEpisodes) {
  std::set<std::uint64_t> victims;
  for (const auto& ep : result_->episodes)
    if (ep.victim_job) victims.insert(*ep.victim_job);
  for (const auto& j : result_->job_log.jobs()) {
    if (joblog::is_system_caused(j.exit_class))
      EXPECT_TRUE(victims.contains(j.job_id));
  }
}

TEST_F(SimulatorTest, EpisodesHaveFatalEventsNearby) {
  // Each episode must produce at least one FATAL event within its burst
  // horizon on the same midplane.
  const auto fatals =
      result_->ras_log.filter_severity(raslog::Severity::kFatal);
  for (const auto& ep : result_->episodes) {
    bool found = false;
    for (const auto& e : fatals) {
      if (e.timestamp < ep.time) continue;
      if (e.timestamp > ep.time + 40 * 300) break;
      const auto common = e.location.common_level(ep.origin);
      if (common && *common >= topology::Level::kMidplane) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "episode at " << ep.time << " left no fatal event";
  }
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  const SimResult again = simulate(*config_);
  ASSERT_EQ(again.job_log.size(), result_->job_log.size());
  ASSERT_EQ(again.ras_log.size(), result_->ras_log.size());
  for (std::size_t i = 0; i < again.job_log.size(); i += 211)
    EXPECT_EQ(again.job_log.jobs()[i], result_->job_log.jobs()[i]);
  for (std::size_t i = 0; i < again.ras_log.size(); i += 1013)
    EXPECT_EQ(again.ras_log.events()[i], result_->ras_log.events()[i]);
}

TEST_F(SimulatorTest, DifferentSeedsProduceDifferentTraces) {
  SimConfig other = *config_;
  other.seed = config_->seed + 1;
  const SimResult b = simulate(other);
  EXPECT_NE(b.job_log.size(), 0u);
  // Sizes can coincide; compare content.
  bool any_diff = b.job_log.size() != result_->job_log.size();
  if (!any_diff) {
    for (std::size_t i = 0; i < b.job_log.size(); ++i) {
      if (!(b.job_log.jobs()[i] == result_->job_log.jobs()[i])) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

/// 64-bit FNV-1a of a file's bytes.
std::uint64_t fnv1a_of_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    hash ^= static_cast<unsigned char>(*it);
    hash *= 1099511628211ull;
  }
  return hash;
}

// The four CSVs of the scale-0.01 twin, byte for byte. Events with equal
// times exist, so a change in how the fault model orders its draws (a
// stable sort, say) shows here first.
TEST_F(SimulatorTest, TraceBytesArePinned) {
  struct Pinned {
    std::uint64_t seed;
    std::uint64_t ras, jobs, tasks, io;
  };
  constexpr Pinned kPinned[] = {
      {1, 0xd2e8cbbe579f68c6, 0x881cb8427bf59827, 0x6e68807b14c9b017,
       0xc57d932dab414f8a},
      {5, 0x737a0ba88296f693, 0x84bdadf2da8a69cd, 0xc7e053c3a003344a,
       0xf04791f2781375af},
  };
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("failmine_pinned_trace_" + std::to_string(::getpid()));
  for (const Pinned& pinned : kPinned) {
    SCOPED_TRACE("seed " + std::to_string(pinned.seed));
    SimConfig config;
    config.scale = 0.01;
    config.seed = pinned.seed;
    std::filesystem::create_directories(dir);
    write_dataset(simulate(config), dir.string());
    EXPECT_EQ(fnv1a_of_file((dir / "ras.csv").string()), pinned.ras);
    EXPECT_EQ(fnv1a_of_file((dir / "jobs.csv").string()), pinned.jobs);
    EXPECT_EQ(fnv1a_of_file((dir / "tasks.csv").string()), pinned.tasks);
    EXPECT_EQ(fnv1a_of_file((dir / "io.csv").string()), pinned.io);
    std::filesystem::remove_all(dir);
  }
}

TEST(Simulator, ScaleChangesJobCountProportionally) {
  SimConfig small = SimConfig::test_scale();
  SimConfig half = small;
  half.scale = small.scale / 2.0;
  const auto a = simulate(small);
  const auto b = simulate(half);
  const double ratio = static_cast<double>(b.job_log.size()) /
                       static_cast<double>(a.job_log.size());
  EXPECT_NEAR(ratio, 0.5, 0.08);
}

TEST(Simulator, InvalidConfigRejected) {
  SimConfig bad = SimConfig::test_scale();
  bad.observation_days = 0;
  EXPECT_THROW(simulate(bad), failmine::DomainError);
}

}  // namespace
}  // namespace failmine::sim
