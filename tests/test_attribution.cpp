// Unit tests for core/attribution with hand-built jobs and events.

#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <tuple>

#include "obs/metrics.hpp"
#include "raslog/message_catalog.hpp"
#include "sim/simulator.hpp"
#include "topology/partition.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace failmine::core {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

joblog::JobRecord make_job(std::uint64_t id, util::UnixSeconds start,
                           util::UnixSeconds end, int first_midplane,
                           std::uint32_t nodes = 512) {
  joblog::JobRecord j;
  j.job_id = id;
  j.user_id = static_cast<std::uint32_t>(id % 7);
  j.project_id = 1;
  j.queue = "prod-short";
  j.submit_time = start - 10;
  j.start_time = start;
  j.end_time = end;
  j.nodes_used = nodes;
  j.task_count = 1;
  j.requested_walltime = end - start + 100;
  j.partition_first_midplane = first_midplane;
  return j;
}

raslog::RasEvent make_event(util::UnixSeconds t, const char* location,
                            const char* msg = "00010001") {
  raslog::RasEvent e;
  e.timestamp = t;
  e.message_id = msg;
  const auto& def = raslog::message_by_id(msg);
  e.severity = def.severity;
  e.component = def.component;
  e.category = def.category;
  e.location = topology::Location::parse(location, kMira);
  return e;
}

/// A log holding `records` in the given order: appended, never finalized.
joblog::JobLog append_only(const std::vector<joblog::JobRecord>& records) {
  joblog::JobLog log;
  for (const auto& j : records) log.append(j);
  return log;
}

TEST(Attribution, MatchesEventInsideJobWindowAndPartition) {
  // Job on midplanes 0..1 (R00), active [100, 200].
  const joblog::JobLog jobs({make_job(1, 100, 200, 0, 1024)});
  const AttributionIndex index(jobs, kMira);
  EXPECT_EQ(index.attribute(make_event(150, "R00-M0-N00-J00")), 1u);
  EXPECT_EQ(index.attribute(make_event(150, "R00-M1-N15-J31")), 1u);
  // Outside the time window.
  EXPECT_EQ(index.attribute(make_event(250, "R00-M0-N00-J00")), std::nullopt);
  // Outside the partition.
  EXPECT_EQ(index.attribute(make_event(150, "R01-M0-N00-J00")), std::nullopt);
}

TEST(Attribution, BoundaryTimesAreInclusive) {
  const joblog::JobLog jobs({make_job(1, 100, 200, 0)});
  const AttributionIndex index(jobs, kMira);
  EXPECT_EQ(index.attribute(make_event(100, "R00-M0-N00-J00")), 1u);
  EXPECT_EQ(index.attribute(make_event(200, "R00-M0-N00-J00")), 1u);
  EXPECT_EQ(index.attribute(make_event(99, "R00-M0-N00-J00")), std::nullopt);
}

TEST(Attribution, RackLevelEventMatchesAnyJobOnTheRack) {
  // Job on midplane 1 only (second midplane of rack 0).
  const joblog::JobLog jobs({make_job(1, 100, 200, 1)});
  const AttributionIndex index(jobs, kMira);
  EXPECT_EQ(index.attribute(make_event(150, "R00", "00800001")), 1u);
  EXPECT_EQ(index.attribute(make_event(150, "R01", "00800001")), std::nullopt);
}

TEST(Attribution, PicksSomeCoveringJobWhenAllocationsOverlap) {
  // Two jobs share midplane 0 at the same time. Real logs and the simulator
  // both overlap allocations (24,665 overlapping occupations at seed 1,
  // scale 0.1); the latest-starting covering job wins.
  const joblog::JobLog jobs(
      {make_job(1, 100, 300, 0), make_job(2, 150, 250, 0)});
  const AttributionIndex index(jobs, kMira);
  const auto hit = index.attribute(make_event(200, "R00-M0-N00-J00"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2u);
}

TEST(Attribution, EqualStartsGoToTheHighestJobId) {
  // Jobs 3 and 5 start together on midplane 0. Job 5 wins whether the log
  // is finalized (ordered by start, then id) or holds them in append order.
  const std::vector<joblog::JobRecord> records = {make_job(5, 100, 300, 0),
                                                   make_job(3, 100, 300, 0)};
  const joblog::JobLog finalized(records);
  const joblog::JobLog appended = append_only(records);
  for (const joblog::JobLog* jobs : {&finalized, &appended}) {
    const AttributionIndex index(*jobs, kMira);
    EXPECT_EQ(index.attribute(make_event(200, "R00-M0-N00-J00")), 5u);
    const auto stats = index.attribute_all(
        raslog::RasLog({make_event(200, "R00-M0-N00-J00")}));
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].job_id, 5u);
  }
}

TEST(Attribution, CapCountsTheCoveringJobItCannotReach) {
  // Job 1 runs [0, 1000] on midplane 0; jobs 2..71 nest inside it and end
  // by t = 171. At t = 500 a walk back meets 64 of the nested jobs and stops
  // before job 1: no match, as before the counter existed, and one count.
  std::vector<joblog::JobRecord> records = {make_job(1, 0, 1000, 0)};
  for (std::uint64_t id = 2; id <= 71; ++id)
    records.push_back(make_job(id, static_cast<util::UnixSeconds>(id),
                               static_cast<util::UnixSeconds>(id) + 100, 0));
  const AttributionIndex index(joblog::JobLog(std::move(records)), kMira);
  const obs::Counter& capped =
      obs::metrics().counter("core.attribution.walk_capped");
  const auto before = capped.value();
  EXPECT_EQ(index.attribute(make_event(500, "R00-M0-N00-J00")), std::nullopt);
  EXPECT_EQ(capped.value(), before + 1);
  EXPECT_TRUE(
      index.attribute_all(raslog::RasLog({make_event(500, "R00-M0-N00-J00")}))
          .empty());
  EXPECT_EQ(capped.value(), before + 2);
  // Walks that settle within the cap do not count: a nested job covers
  // t = 150, and after t = 1000 no occupation reaches the event at all.
  EXPECT_EQ(index.attribute(make_event(150, "R00-M0-N00-J00")), 71u);
  EXPECT_EQ(index.attribute(make_event(1500, "R00-M0-N00-J00")), std::nullopt);
  EXPECT_EQ(capped.value(), before + 2);
}

TEST(Attribution, AttributeAllCountsBySeverity) {
  const joblog::JobLog jobs({make_job(1, 100, 200, 0)});
  std::vector<raslog::RasEvent> events = {
      make_event(110, "R00-M0-N00-J00", "00010001"),  // INFO
      make_event(120, "R00-M0-N01-J00", "00010003"),  // WARN
      make_event(130, "R00-M0-N02-J00", "00010005"),  // FATAL
      make_event(140, "R20-M0-N00-J00", "00010005"),  // elsewhere
  };
  const AttributionIndex index(jobs, kMira);
  const auto stats = index.attribute_all(raslog::RasLog(std::move(events)));
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].job_id, 1u);
  EXPECT_EQ(stats[0].info_events, 1u);
  EXPECT_EQ(stats[0].warn_events, 1u);
  EXPECT_EQ(stats[0].fatal_events, 1u);
  EXPECT_EQ(stats[0].total(), 3u);
}

TEST(Attribution, UserCorrelationInputAlignsRows) {
  const joblog::JobLog jobs({make_job(1, 100, 200, 0),    // user 1
                             make_job(2, 300, 400, 2),    // user 2
                             make_job(8, 500, 600, 4)});  // user 1 again
  std::vector<raslog::RasEvent> events = {
      make_event(150, "R00-M0-N00-J00"),  // -> job 1 (user 1)
      make_event(350, "R01-M0-N00-J00"),  // -> job 2 (user 2)
      make_event(550, "R02-M0-N00-J00"),  // -> job 8 (user 1)
  };
  const auto input = user_event_correlation_input(
      jobs, raslog::RasLog(std::move(events)), kMira);
  ASSERT_EQ(input.user_ids.size(), 2u);
  // Rows must be internally consistent.
  double total_events = 0.0, total_jobs = 0.0;
  for (std::size_t i = 0; i < input.user_ids.size(); ++i) {
    total_events += input.events_per_user[i];
    total_jobs += input.jobs_per_user[i];
    if (input.user_ids[i] == 1u) {
      EXPECT_DOUBLE_EQ(input.events_per_user[i], 2.0);
      EXPECT_DOUBLE_EQ(input.jobs_per_user[i], 2.0);
    }
  }
  EXPECT_DOUBLE_EQ(total_events, 3.0);
  EXPECT_DOUBLE_EQ(total_jobs, 3.0);
}

// Reference attribution: every job on the event's midplane (or on each
// midplane of its rack, the first first) that started by the event, latest
// start and then highest id first; the first 64 are searched for one still
// running at the event.
std::optional<std::uint64_t> brute_force(
    const std::vector<joblog::JobRecord>& jobs, const raslog::RasEvent& e) {
  std::vector<int> mids;
  if (e.location.level() >= topology::Level::kMidplane) {
    mids = {topology::Partition::global_midplane_index(e.location, kMira)};
  } else {
    const int rack = e.location.rack_index(kMira);
    mids = {2 * rack, 2 * rack + 1};
  }
  for (const int m : mids) {
    std::vector<const joblog::JobRecord*> started;
    for (const auto& j : jobs) {
      const auto p = j.partition(kMira);
      if (p.first_midplane() <= m &&
          m < p.first_midplane() + p.midplane_count() &&
          j.start_time <= e.timestamp)
        started.push_back(&j);
    }
    std::sort(started.begin(), started.end(), [](const auto* a, const auto* b) {
      return std::tie(a->start_time, a->job_id) >
             std::tie(b->start_time, b->job_id);
    });
    for (std::size_t i = 0; i < started.size() && i < 64; ++i)
      if (e.timestamp <= started[i]->end_time) return started[i]->job_id;
  }
  return std::nullopt;
}

/// job id -> {info, warn, fatal}
using Tally = std::map<std::uint64_t, std::array<std::uint64_t, 3>>;

Tally tally(const std::vector<JobEventStats>& stats) {
  Tally out;
  for (const auto& s : stats)
    out[s.job_id] = {s.info_events, s.warn_events, s.fatal_events};
  return out;
}

template <class Attribute>
Tally tally(const std::vector<raslog::RasEvent>& events, Attribute attribute) {
  Tally out;
  for (const auto& e : events)
    if (const auto job = attribute(e))
      ++out[*job][static_cast<std::size_t>(e.severity)];
  return out;
}

// Jobs on racks R00-R03 (midplanes 0-7) over [0, 4000] s: starts on a 50 s
// grid so equal starts are common, 1/2/4-midplane partitions, and on
// midplane 0 a whole-window job with 70 short jobs nested in it, deeper
// than the 64-step cap.
std::vector<joblog::JobRecord> random_jobs(util::Rng& rng) {
  std::vector<joblog::JobRecord> jobs;
  std::uint64_t id = 1 + rng.uniform_index(1000);
  for (int i = 0; i < 150; ++i) {
    const int width = 1 << rng.uniform_index(3);
    const int first = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(8 - width + 1)));
    const util::UnixSeconds start = 50 * rng.uniform_int(0, 80);
    jobs.push_back(make_job(id, start, start + rng.uniform_int(0, 1500), first,
                            512u * static_cast<std::uint32_t>(width)));
    id += 1 + rng.uniform_index(3);
  }
  const util::UnixSeconds outer = 50 * rng.uniform_int(0, 20);
  jobs.push_back(make_job(id++, outer, 4600, 0));
  for (int i = 0; i < 70; ++i) {
    const util::UnixSeconds start = outer + 1 + rng.uniform_int(0, 100);
    jobs.push_back(make_job(id++, start, start + rng.uniform_int(0, 30), 0));
  }
  return jobs;
}

// Events on the same racks over [0, 4700] s: a quarter land on a job's
// first or last second or just outside it, and a fifth are rack-level.
std::vector<raslog::RasEvent> random_events(
    util::Rng& rng, const std::vector<joblog::JobRecord>& jobs) {
  std::vector<raslog::RasEvent> events;
  for (int i = 0; i < 600; ++i) {
    util::UnixSeconds t = rng.uniform_int(0, 4700);
    if (rng.bernoulli(0.25)) {
      const auto& j = jobs[rng.uniform_index(jobs.size())];
      t = (rng.bernoulli(0.5) ? j.start_time : j.end_time) +
          rng.uniform_int(-1, 1);
    }
    const int rack = static_cast<int>(rng.uniform_index(4));
    char location[32];
    if (rng.bernoulli(0.2)) {
      std::snprintf(location, sizeof(location), "R0%d", rack);
      events.push_back(make_event(t, location, "00800001"));
    } else {
      std::snprintf(location, sizeof(location), "R0%d-M%d-N%02d-J%02d", rack,
                    static_cast<int>(rng.uniform_index(2)),
                    static_cast<int>(rng.uniform_index(16)),
                    static_cast<int>(rng.uniform_index(32)));
      const char* msg = rng.bernoulli(0.5) ? "00010001" : "00010005";
      events.push_back(make_event(t, location, msg));
    }
  }
  return events;
}

TEST(Attribution, SweepMatchesPointQueriesAndBruteForce) {
  const obs::Counter& capped =
      obs::metrics().counter("core.attribution.walk_capped");
  const auto capped_before = capped.value();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto records = random_jobs(rng);
    auto events = random_events(rng, records);
    // One index over a finalized log, one over the same jobs appended in
    // generation order, whose lanes the index must sort itself.
    const joblog::JobLog finalized(records);
    const joblog::JobLog appended = append_only(records);
    const auto reference = tally(events, [&](const raslog::RasEvent& e) {
      return brute_force(records, e);
    });
    // An appended RasLog keeps its random time order, so the sweep's
    // cursors must seek back.
    raslog::RasLog unsorted;
    for (const auto& e : events) unsorted.append(e);
    const raslog::RasLog sorted(std::move(events));
    for (const joblog::JobLog* jobs : {&finalized, &appended}) {
      const AttributionIndex index(*jobs, kMira);
      for (const auto& e : sorted.events())
        ASSERT_EQ(index.attribute(e), brute_force(records, e))
            << "t=" << e.timestamp << " at " << e.location.to_string();
      const auto point = [&](const raslog::RasEvent& e) {
        return index.attribute(e);
      };
      EXPECT_EQ(tally(sorted.events(), point), reference);
      EXPECT_EQ(tally(index.attribute_all(sorted)), reference);
      EXPECT_EQ(tally(index.attribute_all(unsorted)), reference);
    }
  }
  // The nesting on midplane 0 runs deeper than the cap.
  EXPECT_GT(capped.value(), capped_before);
}

TEST(Attribution, SweepMatchesPointQueriesOnTheTestScaleTwin) {
  const auto twin = sim::simulate(sim::SimConfig::test_scale());
  const AttributionIndex index(twin.job_log, kMira);
  const auto& events = twin.ras_log.events();
  const auto swept = tally(index.attribute_all(twin.ras_log));
  EXPECT_EQ(swept, tally(events, [&](const raslog::RasEvent& e) {
              return index.attribute(e);
            }));
  EXPECT_FALSE(swept.empty());
  for (std::size_t i = 0; i < events.size(); i += 97)
    ASSERT_EQ(index.attribute(events[i]),
              brute_force(twin.job_log.jobs(), events[i]))
        << "event " << i;
}

}  // namespace
}  // namespace failmine::core
