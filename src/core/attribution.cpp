#include "core/attribution.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "topology/partition.hpp"
#include "util/error.hpp"

namespace failmine::core {

using topology::Level;
using util::UnixSeconds;

namespace {

/// Walks that reached the cap with the covering job still further back.
obs::Counter& walk_capped() {
  static obs::Counter& c =
      obs::metrics().counter("core.attribution.walk_capped");
  return c;
}

// Allocations on one midplane rarely nest deeply, so the cap only bounds
// pathological logs.
constexpr std::size_t kMaxWalk = 64;

/// Number of lane entries starting at or before t.
template <class Occupations>
std::size_t started_by(const Occupations& lane, UnixSeconds t) {
  return static_cast<std::size_t>(
      std::upper_bound(lane.begin(), lane.end(), t,
                       [](UnixSeconds value, const auto& o) {
                         return value < o.start;
                       }) -
      lane.begin());
}

}  // namespace

AttributionIndex::AttributionIndex(const joblog::JobLog& jobs,
                                   const topology::MachineConfig& machine)
    : machine_(machine) {
  walk_capped();  // exports show the counter from the first index on
  const auto& all = jobs.jobs();
  if (all.size() > std::numeric_limits<std::uint32_t>::max())
    throw failmine::DomainError("too many jobs to index");
  job_ids_.reserve(all.size());
  for (const auto& job : all) job_ids_.push_back(job.job_id);
  // Fill the lanes in (start, job id) order, so each comes out sorted. A
  // finalized JobLog already is in that order.
  std::vector<std::uint32_t> order(all.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto before = [&all](std::uint32_t a, std::uint32_t b) {
    return all[a].start_time != all[b].start_time
               ? all[a].start_time < all[b].start_time
               : all[a].job_id < all[b].job_id;
  };
  if (!std::is_sorted(order.begin(), order.end(), before))
    std::sort(order.begin(), order.end(), before);
  // Count each lane's occupations, then fill the lanes in place: lanes
  // grown by push_back would over-allocate.
  const auto lanes =
      static_cast<std::size_t>(machine.racks() * machine.midplanes_per_rack);
  lane_begin_.assign(lanes + 1, 0);
  for (const auto& job : all) {
    const auto partition = job.partition(machine);
    for (int m = partition.first_midplane();
         m < partition.first_midplane() + partition.midplane_count(); ++m)
      ++lane_begin_[static_cast<std::size_t>(m) + 1];
  }
  for (std::size_t m = 0; m < lanes; ++m) lane_begin_[m + 1] += lane_begin_[m];
  occupations_.resize(lane_begin_.back());
  occupant_.resize(lane_begin_.back());
  std::vector<std::size_t> fill(lane_begin_.begin(), lane_begin_.end() - 1);
  std::vector<UnixSeconds> reach(lanes,
                                 std::numeric_limits<UnixSeconds>::min());
  for (const std::uint32_t j : order) {
    const auto& job = all[j];
    const auto partition = job.partition(machine);
    for (int m = partition.first_midplane();
         m < partition.first_midplane() + partition.midplane_count(); ++m) {
      const auto i = static_cast<std::size_t>(m);
      reach[i] = std::max(reach[i], job.end_time);
      occupations_[fill[i]] =
          Occupation{job.start_time, job.end_time, reach[i]};
      occupant_[fill[i]++] = j;
    }
  }
}

std::pair<int, int> AttributionIndex::lanes_of(
    const raslog::RasEvent& event) const {
  if (event.location.level() >= Level::kMidplane) {
    const int mid =
        topology::Partition::global_midplane_index(event.location, machine_);
    return {mid, mid + 1};
  }
  const int first =
      event.location.rack_index(machine_) * machine_.midplanes_per_rack;
  return {first, first + machine_.midplanes_per_rack};
}

AttributionIndex::Lane AttributionIndex::lane(int global_midplane) const {
  if (global_midplane < 0 ||
      static_cast<std::size_t>(global_midplane) + 1 >= lane_begin_.size())
    throw failmine::DomainError("midplane index out of machine");
  const auto m = static_cast<std::size_t>(global_midplane);
  const std::size_t first = lane_begin_[m];
  const std::size_t size = lane_begin_[m + 1] - first;
  return {{occupations_.data() + first, size},
          {occupant_.data() + first, size}};
}

std::optional<std::uint64_t> AttributionIndex::walk_back(
    const Lane& lane, std::size_t pos, UnixSeconds t) const {
  // If no entry up to pos - 1 reaches t, none covers it: idle hardware.
  // Otherwise one does, and the walk back meets the latest such first.
  if (pos == 0 || lane.occupations[pos - 1].reach < t) return std::nullopt;
  for (const std::size_t stop = pos > kMaxWalk ? pos - kMaxWalk : 0;
       pos > stop;) {
    --pos;
    if (t <= lane.occupations[pos].end) return job_ids_[lane.occupants[pos]];
  }
  walk_capped().add();
  return std::nullopt;
}

std::optional<std::uint64_t> AttributionIndex::attribute(
    const raslog::RasEvent& event) const {
  const auto [first, last] = lanes_of(event);
  for (int m = first; m < last; ++m) {
    const Lane l = lane(m);
    const auto hit = walk_back(l, started_by(l.occupations, event.timestamp),
                               event.timestamp);
    if (hit) return hit;
  }
  return std::nullopt;
}

std::vector<JobEventStats> AttributionIndex::attribute_all(
    const raslog::RasLog& log) const {
  // cursor[m] counts lane m's occupations starting at or before cursor_t[m].
  const std::size_t lanes = lane_begin_.size() - 1;
  std::vector<std::size_t> cursor(lanes, 0);
  std::vector<UnixSeconds> cursor_t(lanes,
                                    std::numeric_limits<UnixSeconds>::min());
  std::unordered_map<std::uint64_t, JobEventStats> by_job;
  for (const auto& event : log.events()) {
    const UnixSeconds t = event.timestamp;
    const auto [first, last] = lanes_of(event);
    std::optional<std::uint64_t> job;
    for (int m = first; m < last && !job; ++m) {
      const Lane l = lane(m);
      const auto i = static_cast<std::size_t>(m);
      std::size_t& pos = cursor[i];
      if (t < cursor_t[i]) {
        pos = started_by(l.occupations, t);
      } else {
        while (pos < l.occupations.size() && l.occupations[pos].start <= t)
          ++pos;
      }
      cursor_t[i] = t;
      job = walk_back(l, pos, t);
    }
    if (!job) continue;
    JobEventStats& s = by_job[*job];
    s.job_id = *job;
    switch (event.severity) {
      case raslog::Severity::kInfo: ++s.info_events; break;
      case raslog::Severity::kWarn: ++s.warn_events; break;
      case raslog::Severity::kFatal: ++s.fatal_events; break;
    }
  }
  std::vector<JobEventStats> out;
  out.reserve(by_job.size());
  for (const auto& [id, s] : by_job) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const JobEventStats& a, const JobEventStats& b) {
              return a.job_id < b.job_id;
            });
  return out;
}

UserEventCorrelationInput user_event_correlation_input(
    const joblog::JobLog& jobs, const raslog::RasLog& ras,
    const topology::MachineConfig& machine) {
  const AttributionIndex index(jobs, machine);
  const auto per_job = index.attribute_all(ras);

  std::unordered_map<std::uint32_t, std::size_t> row_of_user;
  UserEventCorrelationInput input;
  auto row_for = [&](std::uint32_t user) {
    const auto it = row_of_user.find(user);
    if (it != row_of_user.end()) return it->second;
    const std::size_t row = input.user_ids.size();
    row_of_user.emplace(user, row);
    input.user_ids.push_back(user);
    input.events_per_user.push_back(0.0);
    input.fatal_events_per_user.push_back(0.0);
    input.core_hours_per_user.push_back(0.0);
    input.jobs_per_user.push_back(0.0);
    return row;
  };

  for (const auto& job : jobs.jobs()) {
    const std::size_t row = row_for(job.user_id);
    input.core_hours_per_user[row] += job.core_hours(machine);
    input.jobs_per_user[row] += 1.0;
  }
  for (const auto& s : per_job) {
    const auto& job = jobs.by_id(s.job_id);
    const std::size_t row = row_for(job.user_id);
    input.events_per_user[row] += static_cast<double>(s.total());
    input.fatal_events_per_user[row] += static_cast<double>(s.fatal_events);
  }
  return input;
}

}  // namespace failmine::core
