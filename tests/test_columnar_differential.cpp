// Differential test of the shared analysis accumulators.
//
// The row and columnar backends of columnar::QueryEngine and the stream
// shards all feed the same accumulators (analysis/accumulators.hpp), so
// comparing one backend with another no longer checks the arithmetic.
// Each is compared instead with a deliberately naive reference written
// here: plain per-record loops over std::map, sharing no code with the
// accumulators. The inputs are three simulated seeds, each loaded from
// CSV with 1 and with 4 ingest threads, and a seeded 1M-row synthetic
// job stream; every answer must match the reference bit for bit. Stream
// shard partials of E02, and merged partials of the other accumulators,
// must match every count and share exactly, with core-hours within 1e-9
// relative (merging reorders the f64 sums). The sparse group-by
// fallback, taken when user ids come from far outside the dense range,
// is checked and counted too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/accumulators.hpp"
#include "columnar/builder.hpp"
#include "columnar/engine.hpp"
#include "columnar/load.hpp"
#include "core/joint_analyzer.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/synthetic.hpp"
#include "stream/operators.hpp"

namespace failmine {
namespace {

using joblog::JobRecord;
using raslog::RasEvent;

// ---- the naive reference ---------------------------------------------------

template <class KeyOf>
std::vector<analysis::GroupStats> naive_groups(
    const std::vector<JobRecord>& jobs, const topology::MachineConfig& m,
    KeyOf key_of) {
  std::map<std::uint32_t, analysis::GroupStats> by_key;
  for (const JobRecord& j : jobs) {
    analysis::GroupStats& g = by_key[key_of(j)];
    g.group_id = key_of(j);
    ++g.jobs;
    const double ch = j.core_hours(m);
    g.core_hours += ch;
    if (j.failed()) {
      ++g.failures;
      g.failed_core_hours += ch;
      if (joblog::is_user_caused(j.exit_class)) ++g.user_caused_failures;
      if (joblog::is_system_caused(j.exit_class)) ++g.system_caused_failures;
    }
  }
  std::vector<analysis::GroupStats> out;
  for (const auto& [id, g] : by_key) out.push_back(g);
  return out;
}

std::uint32_t user_of(const JobRecord& j) { return j.user_id; }
std::uint32_t project_of(const JobRecord& j) { return j.project_id; }

core::ExitBreakdown naive_exit_breakdown(const std::vector<JobRecord>& jobs,
                                         const topology::MachineConfig& m) {
  core::ExitBreakdown b;
  b.total_jobs = jobs.size();
  std::map<joblog::ExitClass, core::ExitBreakdownRow> rows;
  std::uint64_t user_caused = 0;
  std::uint64_t system_caused = 0;
  for (const JobRecord& j : jobs) {
    core::ExitBreakdownRow& row = rows[j.exit_class];
    row.exit_class = j.exit_class;
    ++row.jobs;
    row.core_hours += j.core_hours(m);
    if (j.failed()) {
      ++b.total_failures;
      if (joblog::is_user_caused(j.exit_class)) ++user_caused;
      if (joblog::is_system_caused(j.exit_class)) ++system_caused;
    }
  }
  for (auto [cls, row] : rows) {
    row.share_of_jobs =
        static_cast<double>(row.jobs) / static_cast<double>(b.total_jobs);
    row.share_of_failures = joblog::is_failure(cls) && b.total_failures > 0
                                ? static_cast<double>(row.jobs) /
                                      static_cast<double>(b.total_failures)
                                : 0.0;
    b.rows.push_back(row);
  }
  if (b.total_failures > 0) {
    b.user_caused_share = static_cast<double>(user_caused) /
                          static_cast<double>(b.total_failures);
    b.system_caused_share = static_cast<double>(system_caused) /
                            static_cast<double>(b.total_failures);
  }
  return b;
}

template <class Records, class TimeOf, class Keep, class BucketOf>
std::map<int, std::uint64_t> naive_buckets(const Records& records,
                                           TimeOf time_of, Keep keep,
                                           BucketOf bucket_of) {
  std::map<int, std::uint64_t> counts;
  for (const auto& r : records)
    if (keep(r)) ++counts[bucket_of(time_of(r))];
  return counts;
}

template <std::size_t N>
std::array<std::uint64_t, N> as_array(const std::map<int, std::uint64_t>& m) {
  std::array<std::uint64_t, N> out{};
  for (const auto& [k, n] : m) out.at(static_cast<std::size_t>(k)) = n;
  return out;
}

std::vector<std::uint64_t> as_series(const std::map<int, std::uint64_t>& m) {
  std::vector<std::uint64_t> out;
  for (const auto& [k, n] : m) {
    if (k < 0) continue;
    out.resize(static_cast<std::size_t>(k) + 1, 0);
    out[static_cast<std::size_t>(k)] = n;
  }
  return out;
}

/// The 12 QueryEngine answers, computed the naive way.
struct Reference {
  core::DatasetSummary summary;
  core::ExitBreakdown exits;
  std::vector<analysis::GroupStats> users;
  std::vector<analysis::GroupStats> projects;
  analysis::RasBreakdown ras;
  analysis::HourlyProfile submissions_by_hour{};
  analysis::WeekdayProfile submissions_by_weekday{};
  analysis::HourlyProfile failures_by_hour{};
  analysis::HourlyProfile events_by_hour{};
  std::vector<std::uint64_t> monthly_submissions;
  std::vector<std::uint64_t> monthly_failures;
  std::vector<std::uint64_t> monthly_fatal_events;
};

Reference naive_reference(const sim::SimResult& trace,
                          const topology::MachineConfig& m,
                          util::UnixSeconds origin) {
  const std::vector<JobRecord>& jobs = trace.job_log.jobs();
  const std::vector<RasEvent>& events = trace.ras_log.events();
  Reference r;

  util::UnixSeconds lo = jobs.front().submit_time;
  util::UnixSeconds hi = jobs.front().end_time;
  for (const JobRecord& j : jobs) {
    lo = std::min(lo, j.submit_time);
    hi = std::max(hi, j.end_time);
    r.summary.total_core_hours += j.core_hours(m);
  }
  for (const RasEvent& e : events) {
    lo = std::min(lo, e.timestamp);
    hi = std::max(hi, e.timestamp + 1);
    ++r.summary.ras_by_severity[static_cast<std::size_t>(e.severity)];
  }
  r.summary.span_days = static_cast<double>(hi - lo) /
                        static_cast<double>(util::kSecondsPerDay);
  r.summary.jobs = jobs.size();
  r.summary.tasks = trace.task_log.size();
  r.summary.ras_events = events.size();
  r.summary.io_records = trace.io_log.size();

  r.exits = naive_exit_breakdown(jobs, m);
  r.users = naive_groups(jobs, m, user_of);
  r.projects = naive_groups(jobs, m, project_of);

  r.ras.total_events = events.size();
  for (const RasEvent& e : events) {
    const auto sev = static_cast<std::size_t>(e.severity);
    ++r.ras.by_severity[sev];
    ++r.ras.by_component[e.component][sev];
    ++r.ras.by_category[e.category][sev];
  }

  const auto submit = [](const JobRecord& j) { return j.submit_time; };
  const auto end = [](const JobRecord& j) { return j.end_time; };
  const auto at = [](const RasEvent& e) { return e.timestamp; };
  const auto all = [](const auto&) { return true; };
  const auto failed = [](const JobRecord& j) { return j.failed(); };
  const auto fatal = [](const RasEvent& e) {
    return e.severity == raslog::Severity::kFatal;
  };
  const auto month = [origin](util::UnixSeconds t) {
    return util::month_index(origin, t);
  };
  r.submissions_by_hour =
      as_array<24>(naive_buckets(jobs, submit, all, util::hour_of_day));
  r.submissions_by_weekday =
      as_array<7>(naive_buckets(jobs, submit, all, util::day_of_week));
  r.failures_by_hour =
      as_array<24>(naive_buckets(jobs, end, failed, util::hour_of_day));
  r.events_by_hour =
      as_array<24>(naive_buckets(events, at, all, util::hour_of_day));
  r.monthly_submissions = as_series(naive_buckets(jobs, submit, all, month));
  r.monthly_failures = as_series(naive_buckets(jobs, end, failed, month));
  r.monthly_fatal_events =
      as_series(naive_buckets(events, at, fatal, month));
  return r;
}

// ---- bit-exact comparisons -------------------------------------------------

void expect_same(const core::ExitBreakdown& want,
                 const core::ExitBreakdown& got) {
  EXPECT_EQ(want.total_jobs, got.total_jobs);
  EXPECT_EQ(want.total_failures, got.total_failures);
  EXPECT_EQ(want.user_caused_share, got.user_caused_share);
  EXPECT_EQ(want.system_caused_share, got.system_caused_share);
  ASSERT_EQ(want.rows.size(), got.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    SCOPED_TRACE("exit class row " + std::to_string(i));
    EXPECT_EQ(want.rows[i].exit_class, got.rows[i].exit_class);
    EXPECT_EQ(want.rows[i].jobs, got.rows[i].jobs);
    EXPECT_EQ(want.rows[i].core_hours, got.rows[i].core_hours);
    EXPECT_EQ(want.rows[i].share_of_jobs, got.rows[i].share_of_jobs);
    EXPECT_EQ(want.rows[i].share_of_failures, got.rows[i].share_of_failures);
  }
}

void expect_same(const std::vector<analysis::GroupStats>& want,
                 const std::vector<analysis::GroupStats>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    EXPECT_EQ(want[i].group_id, got[i].group_id);
    EXPECT_EQ(want[i].jobs, got[i].jobs);
    EXPECT_EQ(want[i].failures, got[i].failures);
    EXPECT_EQ(want[i].user_caused_failures, got[i].user_caused_failures);
    EXPECT_EQ(want[i].system_caused_failures, got[i].system_caused_failures);
    EXPECT_EQ(want[i].core_hours, got[i].core_hours);
    EXPECT_EQ(want[i].failed_core_hours, got[i].failed_core_hours);
  }
}

void expect_answers(const Reference& want, const columnar::QueryEngine& engine,
                    util::UnixSeconds origin) {
  const core::DatasetSummary s = engine.dataset_summary();
  EXPECT_EQ(want.summary.span_days, s.span_days);
  EXPECT_EQ(want.summary.jobs, s.jobs);
  EXPECT_EQ(want.summary.tasks, s.tasks);
  EXPECT_EQ(want.summary.ras_events, s.ras_events);
  EXPECT_EQ(want.summary.ras_by_severity, s.ras_by_severity);
  EXPECT_EQ(want.summary.io_records, s.io_records);
  EXPECT_EQ(want.summary.total_core_hours, s.total_core_hours);
  expect_same(want.exits, engine.exit_breakdown());
  expect_same(want.users, engine.per_user_stats());
  expect_same(want.projects, engine.per_project_stats());
  const analysis::RasBreakdown ras = engine.ras_breakdown();
  EXPECT_EQ(want.ras.total_events, ras.total_events);
  EXPECT_EQ(want.ras.by_severity, ras.by_severity);
  EXPECT_EQ(want.ras.by_component, ras.by_component);
  EXPECT_EQ(want.ras.by_category, ras.by_category);
  EXPECT_EQ(want.submissions_by_hour, engine.submissions_by_hour());
  EXPECT_EQ(want.submissions_by_weekday, engine.submissions_by_weekday());
  EXPECT_EQ(want.failures_by_hour, engine.failures_by_hour());
  EXPECT_EQ(want.events_by_hour, engine.events_by_hour());
  EXPECT_EQ(want.monthly_submissions, engine.monthly_submissions(origin));
  EXPECT_EQ(want.monthly_failures, engine.monthly_failures(origin));
  EXPECT_EQ(want.monthly_fatal_events, engine.monthly_fatal_events(origin));
}

// ---- simulated seeds, both backends, 1 and 4 ingest threads ---------------

class ColumnarDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ColumnarDifferential, QueryEngineBackendsMatchNaiveReference) {
  sim::SimConfig config = sim::SimConfig::test_scale();
  config.scale = 0.002;
  config.seed = GetParam();
  const sim::SimResult trace = sim::simulate(config);
  const topology::MachineConfig& machine = config.machine;
  const util::UnixSeconds origin = config.observation_start;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("failmine_differential_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam())))
          .string();
  std::filesystem::create_directories(dir);
  sim::write_dataset(trace, dir);

  const Reference want = naive_reference(trace, machine, origin);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " ingest threads");
    ingest::LoadOptions options;
    options.threads = threads;
    options.min_chunk_bytes = 512;  // a genuinely multi-chunk plan
    const sim::SimResult rows = sim::load_dataset(dir, machine, options);
    const columnar::ColumnarDataset columns =
        columnar::load_dataset(dir, machine, options);
    {
      SCOPED_TRACE("row backend");
      expect_answers(want,
                     columnar::QueryEngine(rows.job_log, rows.task_log,
                                           rows.ras_log, rows.io_log, machine),
                     origin);
    }
    {
      SCOPED_TRACE("columnar backend");
      expect_answers(want, columnar::QueryEngine(columns, machine), origin);
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferential,
                         ::testing::Values(1u, 2u, 3u));

// ---- a seeded 1M-row job stream: E02/E03 drivers and stream shards --------

const std::vector<JobRecord>& synthetic_rows() {
  static const std::vector<JobRecord> rows = [] {
    std::vector<JobRecord> v;
    v.reserve(sim::SyntheticJobStreamConfig{}.rows);
    sim::generate_job_stream(sim::SyntheticJobStreamConfig{},
                             [&](const JobRecord& j) { v.push_back(j); });
    return v;
  }();
  return rows;
}

columnar::JobTable table_of(const std::vector<JobRecord>& rows) {
  columnar::JobTableBuilder b;
  b.reserve(rows.size());
  for (const JobRecord& j : rows) b.add(j);
  std::vector<columnar::JobTableBuilder> chunks;
  chunks.push_back(std::move(b));
  return columnar::JobTableBuilder::merge(std::move(chunks));
}

TEST(ColumnarDifferentialAccumulators, MillionRowJobStreamMatchesReference) {
  const std::vector<JobRecord>& rows = synthetic_rows();
  const columnar::JobTable table = table_of(rows);
  const topology::MachineConfig machine{};
  using analysis::JobKey;

  const core::ExitBreakdown exits = naive_exit_breakdown(rows, machine);
  expect_same(exits, core::exit_breakdown_of(analysis::group_jobs(
                         rows, JobKey::kExitClass, machine)));
  expect_same(exits, core::exit_breakdown_of(columnar::group_jobs(
                         table, JobKey::kExitClass, machine)));
  const auto users = naive_groups(rows, machine, user_of);
  expect_same(users,
              analysis::group_jobs(rows, JobKey::kUser, machine).finalize());
  expect_same(users,
              columnar::group_jobs(table, JobKey::kUser, machine).finalize());
  const auto projects = naive_groups(rows, machine, project_of);
  expect_same(projects, analysis::group_jobs(rows, JobKey::kProject, machine)
                            .finalize());
  expect_same(projects, columnar::group_jobs(table, JobKey::kProject, machine)
                            .finalize());
}

TEST(ColumnarDifferentialAccumulators, StreamShardsMergeToTheReferenceE02) {
  const std::vector<JobRecord>& rows = synthetic_rows();
  const topology::MachineConfig machine{};
  const core::ExitBreakdown want = naive_exit_breakdown(rows, machine);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    std::vector<stream::ShardAggregates> parts;
    for (std::size_t i = 0; i < shards; ++i)
      parts.emplace_back(machine, 0.01, 16);
    for (const JobRecord& j : rows)
      parts[stream::mix64(j.user_id) % shards].apply({j.end_time, 0, j});
    stream::ShardAggregates merged(machine, 0.01, 16);
    for (const stream::ShardAggregates& part : parts) merged.merge(part);
    const core::ExitBreakdown got = core::exit_breakdown_of(merged.exits);

    EXPECT_EQ(want.total_jobs, got.total_jobs);
    EXPECT_EQ(want.total_failures, got.total_failures);
    EXPECT_EQ(want.user_caused_share, got.user_caused_share);
    EXPECT_EQ(want.system_caused_share, got.system_caused_share);
    ASSERT_EQ(want.rows.size(), got.rows.size());
    for (std::size_t i = 0; i < want.rows.size(); ++i) {
      EXPECT_EQ(want.rows[i].exit_class, got.rows[i].exit_class);
      EXPECT_EQ(want.rows[i].jobs, got.rows[i].jobs);
      EXPECT_EQ(want.rows[i].share_of_jobs, got.rows[i].share_of_jobs);
      EXPECT_EQ(want.rows[i].share_of_failures, got.rows[i].share_of_failures);
      // Merging adds the shard partials in another order than one scan.
      EXPECT_NEAR(want.rows[i].core_hours, got.rows[i].core_hours,
                  1e-9 * want.rows[i].core_hours);
    }
  }
}

// ---- merged partials --------------------------------------------------------

TEST(ColumnarDifferentialAccumulators, MergedPartialsMatchNaiveReference) {
  sim::SimConfig config = sim::SimConfig::test_scale();
  config.scale = 0.002;
  const sim::SimResult trace = sim::simulate(config);
  const topology::MachineConfig& m = config.machine;
  const util::UnixSeconds origin = config.observation_start;
  const Reference want = naive_reference(trace, m, origin);
  const std::vector<JobRecord>& jobs = trace.job_log.jobs();
  const std::vector<RasEvent>& events = trace.ras_log.events();
  using Bucket = analysis::TimeProfile::Bucket;

  // Two partials over alternating rows, as hash-partitioned shards see
  // them, then merged.
  analysis::DatasetTotals totals_a(m), totals_b(m);
  analysis::TimeProfile months_a(Bucket::kMonth, origin);
  analysis::TimeProfile months_b(Bucket::kMonth, origin);
  analysis::RasCounts ras_a, ras_b;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    (i % 2 ? totals_b : totals_a)
        .add_job(j.submit_time, j.end_time, j.nodes_used,
                 j.runtime_seconds());
    (i % 2 ? months_b : months_a).add(j.submit_time);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const RasEvent& e = events[i];
    analysis::SeverityCounts one{};
    ++one[static_cast<std::size_t>(e.severity)];
    (i % 2 ? totals_b : totals_a).add_events(one, e.timestamp, e.timestamp);
    (i % 2 ? ras_b : ras_a)
        .add(static_cast<std::uint8_t>(e.severity),
             static_cast<std::uint8_t>(e.component),
             static_cast<std::uint8_t>(e.category));
  }
  totals_a.tasks = trace.task_log.size();
  totals_b.io_records = trace.io_log.size();
  totals_a.merge(totals_b);
  months_a.merge(months_b);
  ras_a.merge(ras_b);

  const core::DatasetSummary s = core::dataset_summary_of(totals_a);
  EXPECT_EQ(want.summary.span_days, s.span_days);
  EXPECT_EQ(want.summary.jobs, s.jobs);
  EXPECT_EQ(want.summary.tasks, s.tasks);
  EXPECT_EQ(want.summary.ras_events, s.ras_events);
  EXPECT_EQ(want.summary.ras_by_severity, s.ras_by_severity);
  EXPECT_EQ(want.summary.io_records, s.io_records);
  EXPECT_NEAR(want.summary.total_core_hours, s.total_core_hours,
              1e-9 * want.summary.total_core_hours);
  EXPECT_EQ(want.monthly_submissions, months_a.finalize());
  const analysis::RasBreakdown ras = ras_a.finalize();
  EXPECT_EQ(want.ras.total_events, ras.total_events);
  EXPECT_EQ(want.ras.by_severity, ras.by_severity);
  EXPECT_EQ(want.ras.by_component, ras.by_component);
  EXPECT_EQ(want.ras.by_category, ras.by_category);

  // E03 halves of the log size their key spaces apart; the merge grows
  // the smaller one.
  const std::size_t half = jobs.size() / 2;
  analysis::JobGroups users_a(m, analysis::JobKey::kUser);
  analysis::JobGroups users_b(m, analysis::JobKey::kUser);
  users_a.add_batch(half, [&](std::size_t i) {
    return analysis::JobFacts::of(jobs[i], analysis::JobKey::kUser);
  });
  users_b.add_batch(jobs.size() - half, [&](std::size_t i) {
    return analysis::JobFacts::of(jobs[half + i], analysis::JobKey::kUser);
  });
  users_a.merge(users_b);
  const std::vector<analysis::GroupStats> got = users_a.finalize();
  ASSERT_EQ(want.users.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(want.users[i].group_id, got[i].group_id);
    EXPECT_EQ(want.users[i].jobs, got[i].jobs);
    EXPECT_EQ(want.users[i].failures, got[i].failures);
    EXPECT_EQ(want.users[i].user_caused_failures,
              got[i].user_caused_failures);
    EXPECT_EQ(want.users[i].system_caused_failures,
              got[i].system_caused_failures);
    EXPECT_NEAR(want.users[i].core_hours, got[i].core_hours,
                1e-9 * want.users[i].core_hours);
  }
}

// ---- the sparse group-by fallback ------------------------------------------

TEST(ColumnarDifferentialAccumulators, SparseUserIdsTakeTheCountedFallback) {
  constexpr std::uint32_t kFar = std::uint32_t{1} << 24;
  const std::uint32_t ids[] = {7, kFar, 3, UINT32_MAX, 7, kFar, 0, UINT32_MAX};
  std::vector<JobRecord> rows;
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    JobRecord j;
    j.job_id = i + 1;
    j.user_id = ids[i];
    j.submit_time = 1000 + static_cast<util::UnixSeconds>(i);
    j.start_time = j.submit_time + 10;
    j.end_time = j.start_time + 3600 * static_cast<util::UnixSeconds>(i + 1);
    j.nodes_used = 512;
    j.exit_class = joblog::kAllExitClasses[i % analysis::kExitClassSlots];
    rows.push_back(j);
  }
  const columnar::JobTable table = table_of(rows);
  const topology::MachineConfig machine{};
  obs::Counter& sparse = obs::metrics().counter("analysis.groupby_sparse");

  const std::uint64_t before = sparse.value();
  const auto from_rows =
      analysis::group_jobs(rows, analysis::JobKey::kUser, machine).finalize();
  const auto from_columns =
      columnar::group_jobs(table, analysis::JobKey::kUser, machine)
          .finalize();
  EXPECT_EQ(sparse.value() - before, 2u);  // one per scan

  const auto want = naive_groups(rows, machine, user_of);
  ASSERT_EQ(want.size(), 5u);
  EXPECT_EQ(want.front().group_id, 0u);
  EXPECT_EQ(want.back().group_id, UINT32_MAX);
  expect_same(want, from_rows);
  expect_same(want, from_columns);

  // A dense key space registers the counter without bumping it.
  const std::uint64_t dense_before = sparse.value();
  analysis::group_jobs(rows, analysis::JobKey::kExitClass, machine);
  EXPECT_EQ(sparse.value(), dense_before);
}

}  // namespace
}  // namespace failmine
