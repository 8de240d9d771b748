// failmine/analysis/accumulators.hpp
//
// One mergeable accumulator per headline analysis: E01 dataset totals,
// E02/E03 job group-by, E06 RAS counts and E11 time profiles.
//
// Thin drivers feed them from the row containers (analysis:: functions,
// core::JointAnalyzer), the columnar tables (columnar::QueryEngine) and
// stream shards (stream::ShardAggregates). add() takes the few field
// values an analysis reads, so every representation runs the same
// arithmetic in the same row order: row and columnar answers agree to
// the last bit because they are the same code. merge() folds partials;
// finalize() builds the result (for E01 and E02, in core/).

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "analysis/group_by.hpp"
#include "analysis/ras_breakdown.hpp"
#include "analysis/temporal.hpp"
#include "analysis/user_stats.hpp"
#include "joblog/job.hpp"
#include "topology/machine.hpp"
#include "util/time.hpp"

namespace failmine::analysis {

/// The observation window: first job submission to last job end, widened
/// to cover every RAS event. E01's span, JointAnalyzer's window and the
/// stream router's window all come from here.
struct ObservationWindow {
  util::UnixSeconds begin = std::numeric_limits<util::UnixSeconds>::max();
  util::UnixSeconds end = std::numeric_limits<util::UnixSeconds>::min();

  bool empty() const { return begin > end; }
  void add_job(util::UnixSeconds submit, util::UnixSeconds job_end) {
    begin = std::min(begin, submit);
    end = std::max(end, job_end);
  }
  /// An event at `t` holds the window open through t + 1.
  void add_event(util::UnixSeconds t) { add_job(t, t + 1); }
  /// An empty window's sentinels leave this one unchanged.
  void merge(const ObservationWindow& other) {
    add_job(other.begin, other.end);
  }
};

/// E01: totals across the four sources.
struct DatasetTotals {
  explicit DatasetTotals(const topology::MachineConfig& machine)
      : cores_per_node(static_cast<double>(machine.cores_per_node)) {}

  void add_job(util::UnixSeconds submit, util::UnixSeconds end,
               std::uint32_t nodes_used, std::int64_t runtime_seconds) {
    window.add_job(submit, end);
    ++jobs;
    total_core_hours +=
        joblog::job_core_hours(nodes_used, cores_per_node, runtime_seconds);
  }
  /// A time-ordered RAS log: its severity counts and the times of its
  /// first and last event.
  void add_events(const SeverityCounts& counts, util::UnixSeconds first,
                  util::UnixSeconds last);
  void merge(const DatasetTotals& other);

  double cores_per_node;
  ObservationWindow window;
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ras_events = 0;
  SeverityCounts ras_by_severity{};
  std::uint64_t io_records = 0;
  double total_core_hours = 0.0;
};

/// Exit classes as group keys: an ExitClass's value is its catalog index.
inline constexpr std::size_t kExitClassSlots =
    std::size(joblog::kAllExitClasses);

/// The job field an E02/E03 group-by keys on.
enum class JobKey { kExitClass, kUser, kProject };

/// One job as the E02/E03 group-by reads it.
struct JobFacts {
  std::uint32_t key = 0;        ///< exit-class code, user id or project id
  std::uint8_t exit_class = 0;  ///< joblog::ExitClass code
  std::uint32_t nodes_used = 0;
  std::int64_t runtime_seconds = 0;

  static JobFacts of(const joblog::JobRecord& job, JobKey key) {
    const auto cls = static_cast<std::uint8_t>(job.exit_class);
    return {key == JobKey::kUser      ? job.user_id
            : key == JobKey::kProject ? job.project_id
                                      : cls,
            cls, job.nodes_used, job.runtime_seconds()};
  }
};

/// E02 and E03: GroupStats per exit class (E02) or per user or project
/// (E03).
class JobGroups {
 public:
  /// `key` names what JobFacts::key holds. The exit classes are a fixed
  /// key space; user and project ids size theirs as they arrive.
  JobGroups(const topology::MachineConfig& machine, JobKey key);

  /// One job, as a stream shard adds it.
  void add(const JobFacts& job) {
    if (by_class_)
      count(groups_[job.key], job, cores_);
    else
      accumulate(groups_.grow(job.key), job, cores_, flags_);
  }

  /// add(job_at(i)) for every i < n: the scan the row and column drivers
  /// run. An id key space is sized to the batch's largest id first, so
  /// the per-row add in the scan has no size check.
  template <class JobAt>
  void add_batch(std::size_t n, JobAt&& job_at) {
    const double cores = cores_;
    if (by_class_) {
      groups_.scan(n, job_at, [cores](GroupStats& g, const JobFacts& job) {
        count(g, job, cores);
      });
      return;
    }
    std::uint32_t max_id = 0;
    for (std::size_t i = 0; i < n; ++i)
      max_id = std::max(max_id, job_at(i).key);
    if (n > 0) groups_.grow(max_id);
    const ExitFlags& flags = flags_;
    groups_.scan(n, job_at,
                 [cores, &flags](GroupStats& g, const JobFacts& job) {
                   accumulate(g, job, cores, flags);
                 });
  }

  void merge(const JobGroups& other);

  /// The groups that have jobs, ascending key (the group_id).
  std::vector<GroupStats> finalize() const;

 private:
  /// Per-class flags, indexed by exit-class code. A job adds the flag
  /// values unconditionally instead of branching on is_failure /
  /// is_user_caused: those branches depend on a skewed exit mix and
  /// mispredict badly at scan scale. `fail_mult` keeps f64 bit parity
  /// with a branching sum: `x += ch * 0.0` leaves a non-negative sum
  /// bit-identical, and `ch * 1.0 == ch` exactly.
  struct ExitFlags {
    std::array<std::uint64_t, kExitClassSlots> fail{};
    std::array<std::uint64_t, kExitClassSlots> user{};
    std::array<std::uint64_t, kExitClassSlots> system{};
    std::array<double, kExitClassSlots> fail_mult{};
  };

  static void count(GroupStats& g, const JobFacts& job, double cores) {
    ++g.jobs;
    g.core_hours +=
        joblog::job_core_hours(job.nodes_used, cores, job.runtime_seconds);
  }
  static void accumulate(GroupStats& g, const JobFacts& job, double cores,
                         const ExitFlags& flags) {
    const double ch =
        joblog::job_core_hours(job.nodes_used, cores, job.runtime_seconds);
    const std::uint8_t c = job.exit_class;
    ++g.jobs;
    g.core_hours += ch;
    g.failed_core_hours += ch * flags.fail_mult[c];
    g.failures += flags.fail[c];
    g.user_caused_failures += flags.user[c];
    g.system_caused_failures += flags.system[c];
  }

  /// Keyed by exit class, a group's flags are its key's: the scan only
  /// counts jobs and core-hours, and finalize() derives the rest.
  bool by_class_;
  double cores_;
  ExitFlags flags_;
  GroupBy<GroupStats> groups_;
};

/// Row driver of E02/E03: one scan of `jobs` (time order) keyed by `key`.
JobGroups group_jobs(const std::vector<joblog::JobRecord>& jobs, JobKey key,
                     const topology::MachineConfig& machine);

/// E06: events per (component, severity) and per (category, severity).
class RasCounts {
 public:
  RasCounts();

  void add(std::uint8_t severity, std::uint8_t component,
           std::uint8_t category) {
    ++by_component_[component][severity];
    ++by_category_[category][severity];
  }
  void merge(const RasCounts& other);
  RasBreakdown finalize() const;

 private:
  GroupBy<SeverityCounts> by_component_;
  GroupBy<SeverityCounts> by_category_;
};

/// E11: how many times fall in each calendar bucket.
class TimeProfile {
 public:
  enum class Bucket { kHourOfDay, kDayOfWeek, kMonth };

  /// Months count from `origin`; earlier times are skipped.
  explicit TimeProfile(Bucket bucket, util::UnixSeconds origin = 0);

  void add(util::UnixSeconds t);
  void merge(const TimeProfile& other);

  /// One count per hour (24), weekday (7, Monday first) or month
  /// (through the latest month seen).
  std::vector<std::uint64_t> finalize() const;
  HourlyProfile hourly() const { return head<24>(); }
  WeekdayProfile weekly() const { return head<7>(); }

 private:
  template <std::size_t N>
  std::array<std::uint64_t, N> head() const {
    std::array<std::uint64_t, N> out{};
    const std::vector<std::uint64_t> counts = finalize();
    std::copy_n(counts.begin(), std::min(N, counts.size()), out.begin());
    return out;
  }

  Bucket bucket_;
  util::UnixSeconds origin_;
  GroupBy<std::uint64_t> counts_;
};

}  // namespace failmine::analysis
