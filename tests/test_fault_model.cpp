// Unit tests for sim/fault_model: system-failure conversion consistency,
// episode structure and the locality of generated events.

#include "sim/fault_model.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "raslog/message_catalog.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "util/error.hpp"

namespace failmine::sim {
namespace {

class FaultModelTest : public ::testing::Test {
 protected:
  FaultModelTest()
      : config_(SimConfig::test_scale()),
        rng_(config_.seed),
        population_(config_, rng_),
        workload_(config_, population_),
        faults_(config_, rng_) {
    jobs_ = workload_.generate(rng_);
    episodes_ = faults_.apply_system_failures(jobs_, rng_);
  }

  SimConfig config_;
  util::Rng rng_;
  Population population_;
  WorkloadModel workload_;
  FaultModel faults_;
  std::vector<joblog::JobRecord> jobs_;
  std::vector<FatalEpisode> episodes_;
};

TEST_F(FaultModelTest, WeakBoardCountMatchesFraction) {
  const auto& m = config_.machine;
  const std::size_t boards = static_cast<std::size_t>(
      m.racks() * m.midplanes_per_rack * m.boards_per_midplane);
  EXPECT_EQ(faults_.weak_boards().size(),
            static_cast<std::size_t>(config_.weak_board_fraction *
                                     static_cast<double>(boards)));
  for (const auto& b : faults_.weak_boards())
    EXPECT_EQ(b.level(), topology::Level::kNodeBoard);
}

TEST_F(FaultModelTest, EveryVictimJobIsSystemFailed) {
  std::map<std::uint64_t, const joblog::JobRecord*> by_id;
  for (const auto& j : jobs_) by_id[j.job_id] = &j;
  std::size_t victims = 0;
  for (const auto& ep : episodes_) {
    if (!ep.victim_job) continue;
    ++victims;
    ASSERT_TRUE(by_id.contains(*ep.victim_job));
    const auto* job = by_id[*ep.victim_job];
    EXPECT_TRUE(joblog::is_system_caused(job->exit_class));
    // Episode fires exactly when the job dies, on its partition.
    EXPECT_EQ(ep.time, job->end_time);
    EXPECT_TRUE(job->partition(config_.machine).covers(ep.origin, config_.machine));
  }
  EXPECT_GT(victims, 0u);
}

TEST_F(FaultModelTest, EverySystemFailedJobHasAnEpisode) {
  std::set<std::uint64_t> victims;
  for (const auto& ep : episodes_)
    if (ep.victim_job) victims.insert(*ep.victim_job);
  for (const auto& j : jobs_) {
    if (joblog::is_system_caused(j.exit_class))
      EXPECT_TRUE(victims.contains(j.job_id)) << "job " << j.job_id;
  }
}

TEST_F(FaultModelTest, SystemFailuresAreRare) {
  std::size_t failures = 0, system = 0;
  for (const auto& j : jobs_) {
    if (!j.failed()) continue;
    ++failures;
    if (joblog::is_system_caused(j.exit_class)) ++system;
  }
  ASSERT_GT(failures, 0u);
  EXPECT_LT(static_cast<double>(system) / static_cast<double>(failures), 0.03);
}

TEST_F(FaultModelTest, EpisodesAreTimeSortedAndInWindow) {
  util::UnixSeconds prev = 0;
  for (const auto& ep : episodes_) {
    EXPECT_GE(ep.time, prev);
    prev = ep.time;
    EXPECT_GE(ep.time, config_.observation_start);
    EXPECT_LT(ep.time, config_.observation_end() + 86400);
    EXPECT_EQ(ep.origin.level(), topology::Level::kNodeBoard);
  }
}

TEST_F(FaultModelTest, GeneratedEventsCoverAllSeverities) {
  const auto events = faults_.generate_events(episodes_, rng_);
  std::array<std::size_t, 3> counts{};
  for (const auto& e : events) ++counts[static_cast<std::size_t>(e.severity)];
  EXPECT_GT(counts[0], counts[1]);  // INFO > WARN
  EXPECT_GT(counts[1], counts[2]);  // WARN > FATAL
  EXPECT_GT(counts[2], 0u);
}

TEST_F(FaultModelTest, EventsComeBackSortedAndNumbered) {
  const auto events = faults_.generate_events(episodes_, rng_);
  ASSERT_GT(events.size(), 1000u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].record_id, i + 1);
    if (i > 0) ASSERT_GE(events[i].timestamp, events[i - 1].timestamp);
  }
}

TEST_F(FaultModelTest, FatalEventsClusterNearEpisodes) {
  const auto events = faults_.generate_events(episodes_, rng_);
  // Every FATAL must be within a handful of episode durations of some
  // episode (they are only emitted by episode bursts).
  for (const auto& e : events) {
    if (e.severity != raslog::Severity::kFatal) continue;
    bool near = false;
    for (const auto& ep : episodes_) {
      if (e.timestamp >= ep.time &&
          e.timestamp <= ep.time + 40 * static_cast<util::UnixSeconds>(
                                            config_.episode_duration_seconds)) {
        near = true;
        break;
      }
    }
    EXPECT_TRUE(near) << "fatal event at " << e.timestamp
                      << " far from every episode";
  }
}

TEST_F(FaultModelTest, EventsMatchCatalogMetadata) {
  const auto events = faults_.generate_events(episodes_, rng_);
  for (std::size_t i = 0; i < events.size(); i += 37) {
    const auto& e = events[i];
    const auto& def = raslog::message_by_id(e.message_id);
    EXPECT_EQ(e.severity, def.severity);
    EXPECT_EQ(e.component, def.component);
    EXPECT_EQ(e.category, def.category);
    EXPECT_EQ(e.location.level(), def.level);
  }
}

TEST_F(FaultModelTest, BackgroundEventsFavorWeakBoards) {
  const auto events = faults_.generate_events(episodes_, rng_);
  std::set<topology::Location> weak(faults_.weak_boards().begin(),
                                    faults_.weak_boards().end());
  std::size_t on_weak = 0, total = 0;
  for (const auto& e : events) {
    if (e.severity == raslog::Severity::kFatal) continue;
    if (e.location.level() < topology::Level::kNodeBoard) continue;
    ++total;
    if (weak.contains(e.location.ancestor(topology::Level::kNodeBoard)))
      ++on_weak;
  }
  ASSERT_GT(total, 1000u);
  // 2 % of boards should absorb ~45 % of locatable background events.
  EXPECT_GT(static_cast<double>(on_weak) / static_cast<double>(total), 0.3);
}

TEST(FaultModel, HazardZeroMeansNoSystemFailures) {
  SimConfig config = SimConfig::test_scale();
  config.system_hazard_per_node_second = 0.0;
  config.idle_fatal_episodes_per_day = 0.0;
  util::Rng rng(11);
  const Population pop(config, rng);
  const WorkloadModel workload(config, pop);
  auto jobs = workload.generate(rng);
  const FaultModel faults(config, rng);
  const auto episodes = faults.apply_system_failures(jobs, rng);
  EXPECT_TRUE(episodes.empty());
  for (const auto& j : jobs)
    EXPECT_FALSE(joblog::is_system_caused(j.exit_class));
}

}  // namespace
}  // namespace failmine::sim
