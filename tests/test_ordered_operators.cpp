// Reference tests for the ordered analyses written once in core: the
// similarity filter (core::SimilarityFilter and its filter_events
// driver), the precursor search (core::PrecursorSearch and its
// warning_lead_times driver) and their shared spatial predicate
// (topology::Location::near). Each is checked against an in-test copy of
// the batch code it replaced, over seeded event sets built to hit the
// edges: equal stamps, gaps on the window and horizon boundaries,
// locations at every level over three racks, repeated message ids, job
// ids and mixed severities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/event_filter.hpp"
#include "core/lead_time.hpp"
#include "raslog/event.hpp"
#include "stats/summary.hpp"
#include "topology/location.hpp"
#include "util/error.hpp"

namespace failmine::core {
namespace {

using raslog::RasEvent;
using raslog::Severity;
using topology::Level;
using topology::Location;

constexpr Level kLevels[] = {Level::kRack, Level::kMidplane, Level::kNodeBoard,
                             Level::kComputeCard, Level::kCore};
constexpr std::pair<int, int> kRacks[] = {{0, 0}, {0, 1}, {1, 0}};
constexpr std::uint64_t kEventSets = 200;

/// A location on one of three racks, truncated to a random level; the
/// component indexes stay small so that locations often share ancestors.
Location random_location(std::mt19937_64& rng) {
  const auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  const auto [row, column] = kRacks[pick(3)];
  const Location full = Location::rack(row, column)
                            .with_midplane(pick(2))
                            .with_board(pick(3))
                            .with_card(pick(3))
                            .with_core(pick(2));
  return full.ancestor(kLevels[pick(5)]);
}

/// Seeded event set: 20–80 events, gaps that land on and around every
/// window and horizon crossed below (0 s for equal stamps).
raslog::RasLog seeded_events(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::size_t n) { return rng() % n; };
  static constexpr std::int64_t kGaps[] = {0,   0,   0,   1,    2,    59,
                                           60,  61,  300, 899,  900,  901,
                                           3599, 3600, 3601, 7199, 7200, 7201};
  static constexpr Severity kSeverities[] = {Severity::kFatal, Severity::kFatal,
                                             Severity::kWarn, Severity::kWarn,
                                             Severity::kInfo};
  static const char* const kMessages[] = {"00010001", "00010002", "000f0001"};
  std::vector<RasEvent> events(20 + pick(61));
  util::UnixSeconds t = 1'000'000;
  for (RasEvent& e : events) {
    t += kGaps[pick(std::size(kGaps))];
    e.timestamp = t;
    e.severity = kSeverities[pick(std::size(kSeverities))];
    e.category =
        raslog::kAllCategories[pick(std::size(raslog::kAllCategories))];
    e.message_id = kMessages[pick(std::size(kMessages))];
    e.location = random_location(rng);
    if (pick(3) == 0) e.job_id = 100 + pick(4);
  }
  return raslog::RasLog(std::move(events));
}

// ---- the batch code these operators replaced, copied -----------------

bool reference_similar(const RasEvent& a, const RasEvent& b,
                       const FilterConfig& config) {
  if (config.require_same_message && a.message_id != b.message_id) return false;
  const auto common = a.location.common_level(b.location);
  if (!common.has_value()) return false;
  const Level required = std::min(
      {config.spatial_level, a.location.level(), b.location.level()});
  return *common >= required;
}

FilterResult reference_filter(const raslog::RasLog& log,
                              const FilterConfig& config) {
  std::vector<const RasEvent*> selected;
  for (const auto& e : log.events())
    if (e.severity == config.severity) selected.push_back(&e);
  FilterResult result;
  result.input_events = selected.size();
  std::vector<std::size_t> open;
  for (const RasEvent* event : selected) {
    std::erase_if(open, [&](std::size_t idx) {
      return result.clusters[idx].last_time <
             event->timestamp - config.window_seconds;
    });
    std::size_t joined = static_cast<std::size_t>(-1);
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (reference_similar(result.clusters[*it].representative, *event,
                            config)) {
        joined = *it;
        break;
      }
    }
    if (joined != static_cast<std::size_t>(-1)) {
      EventCluster& c = result.clusters[joined];
      ++c.member_count;
      c.last_time = event->timestamp;
      if (!c.job_id && event->job_id) c.job_id = event->job_id;
    } else {
      EventCluster c;
      c.representative = *event;
      c.member_count = 1;
      c.first_time = event->timestamp;
      c.last_time = event->timestamp;
      c.job_id = event->job_id;
      result.clusters.push_back(std::move(c));
      open.push_back(result.clusters.size() - 1);
    }
  }
  return result;
}

LeadTimeResult reference_lead_times(const raslog::RasLog& log,
                                    const std::vector<EventCluster>& clusters,
                                    const LeadTimeConfig& config) {
  std::vector<const RasEvent*> warns;
  for (const auto& e : log.events())
    if (e.severity == Severity::kWarn) warns.push_back(&e);
  LeadTimeResult result;
  std::vector<double> leads;
  FilterConfig similarity;
  similarity.spatial_level = config.spatial_level;
  for (const auto& cluster : clusters) {
    Precursor p;
    p.interruption_time = cluster.first_time;
    const util::UnixSeconds window_start =
        cluster.first_time - config.horizon_seconds;
    auto it = std::lower_bound(
        warns.begin(), warns.end(), window_start,
        [](const RasEvent* e, util::UnixSeconds t) {
          return e->timestamp < t;
        });
    const RasEvent* best = nullptr;
    for (; it != warns.end() && (*it)->timestamp <= cluster.first_time; ++it)
      if (reference_similar(**it, cluster.representative, similarity))
        best = *it;
    if (best != nullptr) {
      p.lead_seconds = cluster.first_time - best->timestamp;
      p.warn_message_id = best->message_id;
      ++result.with_precursor;
      leads.push_back(static_cast<double>(*p.lead_seconds));
    } else {
      ++result.without_precursor;
    }
    result.per_interruption.push_back(std::move(p));
  }
  const std::uint64_t total = result.with_precursor + result.without_precursor;
  result.coverage = total > 0 ? static_cast<double>(result.with_precursor) /
                                    static_cast<double>(total)
                              : 0.0;
  if (!leads.empty()) {
    result.median_lead_seconds = stats::median(leads);
    result.mean_lead_seconds = stats::mean(leads);
  }
  return result;
}

// ---- comparisons -------------------------------------------------------

void expect_same_clusters(const std::vector<EventCluster>& got,
                          const std::vector<EventCluster>& want,
                          const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].representative, want[i].representative)
        << where << " #" << i;
    EXPECT_EQ(got[i].member_count, want[i].member_count) << where << " #" << i;
    EXPECT_EQ(got[i].first_time, want[i].first_time) << where << " #" << i;
    EXPECT_EQ(got[i].last_time, want[i].last_time) << where << " #" << i;
    EXPECT_EQ(got[i].job_id, want[i].job_id) << where << " #" << i;
  }
}

void expect_same_lead_times(const LeadTimeResult& got,
                            const LeadTimeResult& want,
                            const std::string& where) {
  ASSERT_EQ(got.per_interruption.size(), want.per_interruption.size()) << where;
  for (std::size_t i = 0; i < want.per_interruption.size(); ++i) {
    const Precursor& g = got.per_interruption[i];
    const Precursor& w = want.per_interruption[i];
    EXPECT_EQ(g.interruption_time, w.interruption_time) << where << " #" << i;
    EXPECT_EQ(g.lead_seconds, w.lead_seconds) << where << " #" << i;
    EXPECT_EQ(g.warn_message_id, w.warn_message_id) << where << " #" << i;
  }
  EXPECT_EQ(got.with_precursor, want.with_precursor) << where;
  EXPECT_EQ(got.without_precursor, want.without_precursor) << where;
  EXPECT_DOUBLE_EQ(got.coverage, want.coverage) << where;
  EXPECT_DOUBLE_EQ(got.median_lead_seconds, want.median_lead_seconds) << where;
  EXPECT_DOUBLE_EQ(got.mean_lead_seconds, want.mean_lead_seconds) << where;
}

// ---- the similarity filter ---------------------------------------------

TEST(EventFilterReference, MatchesTheBatchFilterOnSeededEventSets) {
  std::uint64_t clusters_seen = 0;
  for (std::uint64_t seed = 1; seed <= kEventSets; ++seed) {
    const raslog::RasLog log = seeded_events(seed);
    for (const std::int64_t window : {0, 1, 60, 900, 3600}) {
      for (const Level radius : kLevels) {
        for (const bool same_message : {false, true}) {
          for (const Severity severity : {Severity::kFatal, Severity::kWarn}) {
            FilterConfig config;
            config.window_seconds = window;
            config.spatial_level = radius;
            config.require_same_message = same_message;
            config.severity = severity;
            const std::string where =
                "seed " + std::to_string(seed) + " window " +
                std::to_string(window) + " radius " +
                topology::level_name(radius) + (same_message ? " msg" : "") +
                (severity == Severity::kWarn ? " WARN" : " FATAL");
            const FilterResult want = reference_filter(log, config);
            clusters_seen += want.clusters.size();

            const FilterResult got = filter_events(log, config);
            EXPECT_EQ(got.input_events, want.input_events) << where;
            expect_same_clusters(got.clusters, want.clusters, where);

            // The operator fed every event, as the stream router feeds
            // it: other severities are ignored, and add() is true exactly
            // for the representatives, in order.
            SimilarityFilter filter(config);
            std::vector<RasEvent> opened;
            for (const RasEvent& e : log.events())
              if (filter.add(e)) opened.push_back(e);
            EXPECT_EQ(filter.input_events(), want.input_events) << where;
            expect_same_clusters(filter.clusters(), want.clusters, where);
            ASSERT_EQ(opened.size(), want.clusters.size()) << where;
            for (std::size_t i = 0; i < opened.size(); ++i)
              EXPECT_EQ(opened[i], want.clusters[i].representative) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(clusters_seen, 0u);
}

// ---- the precursor search ----------------------------------------------

TEST(LeadTimeReference, MatchesTheBatchSearchOnSeededEventSets) {
  std::uint64_t leads_seen = 0;
  for (std::uint64_t seed = 1; seed <= kEventSets; ++seed) {
    const raslog::RasLog log = seeded_events(seed);
    FilterConfig filter;
    filter.window_seconds = 60;
    filter.spatial_level = Level::kNodeBoard;
    const std::vector<EventCluster> clusters =
        reference_filter(log, filter).clusters;
    for (const std::int64_t horizon : {1, 60, 900, 7200}) {
      for (const Level radius : kLevels) {
        LeadTimeConfig config;
        config.horizon_seconds = horizon;
        config.spatial_level = radius;
        const std::string where = "seed " + std::to_string(seed) +
                                  " horizon " + std::to_string(horizon) +
                                  " radius " + topology::level_name(radius);
        const LeadTimeResult want = reference_lead_times(log, clusters, config);
        leads_seen += want.with_precursor;
        expect_same_lead_times(warning_lead_times(log, clusters, config), want,
                               where + " (batch driver)");

        // The search driven as the stream predictor drives it: every
        // WARN is added as it streams past, and an interruption resolves
        // only once the stream has moved strictly past its first time, so
        // the WARNs stamped with it are already held. WARNs older than
        // one horizon before the next interruption are dropped.
        PrecursorSearch search(config);
        auto next = clusters.begin();
        for (const RasEvent& e : log.events()) {
          for (; next != clusters.end() && next->first_time < e.timestamp;
               ++next)
            search.resolve(next->first_time, next->representative.location);
          search.forget_before(e.timestamp - horizon);
          if (e.severity == Severity::kWarn) search.add_warn(e);
        }
        for (; next != clusters.end(); ++next)
          search.resolve(next->first_time, next->representative.location);
        expect_same_lead_times(search.result(), want,
                               where + " (deferred driver)");

        // Every WARN held before the first resolve: the walk must skip
        // the WARNs stamped after each interruption.
        PrecursorSearch held(config);
        for (const RasEvent& e : log.events())
          if (e.severity == Severity::kWarn) held.add_warn(e);
        for (const EventCluster& c : clusters)
          held.resolve(c.first_time, c.representative.location);
        expect_same_lead_times(held.result(), want, where + " (all held)");
      }
    }
  }
  EXPECT_GT(leads_seen, 0u);
}

TEST(LeadTimeReference, RejectsClustersOutOfFirstTimeOrder) {
  const raslog::RasLog log = seeded_events(1);
  std::vector<EventCluster> clusters =
      filter_events(log, FilterConfig{}).clusters;
  ASSERT_GE(clusters.size(), 2u);
  std::reverse(clusters.begin(), clusters.end());
  EXPECT_THROW(warning_lead_times(log, clusters), failmine::DomainError);
}

// ---- the spatial predicate ---------------------------------------------

TEST(LocationNear, MatchesTheCommonLevelFormulaOnAGrid) {
  // Every location on two midplanes × two boards × two cards × two cores
  // of three racks, at every level: 3 × 31 locations, all pairs, all radii.
  std::vector<Location> grid;
  for (const auto& [row, column] : kRacks) {
    const Location rack = Location::rack(row, column);
    grid.push_back(rack);
    for (int m = 0; m < 2; ++m) {
      grid.push_back(rack.with_midplane(m));
      for (int b = 0; b < 2; ++b) {
        grid.push_back(rack.with_midplane(m).with_board(b));
        for (int c = 0; c < 2; ++c) {
          grid.push_back(rack.with_midplane(m).with_board(b).with_card(c));
          for (int k = 0; k < 2; ++k)
            grid.push_back(
                rack.with_midplane(m).with_board(b).with_card(c).with_core(k));
        }
      }
    }
  }
  ASSERT_EQ(grid.size(), 93u);
  std::uint64_t near_pairs = 0;
  for (const Location& a : grid) {
    for (const Location& b : grid) {
      for (const Level radius : kLevels) {
        const auto common = a.common_level(b);
        const bool want =
            common.has_value() &&
            *common >= std::min({radius, a.level(), b.level()});
        EXPECT_EQ(a.near(b, radius), want)
            << a.to_string() << " ~ " << b.to_string() << " at "
            << topology::level_name(radius);
        EXPECT_EQ(a.near(b, radius), b.near(a, radius));
        near_pairs += want;
      }
    }
  }
  EXPECT_GT(near_pairs, 0u);
}

}  // namespace
}  // namespace failmine::core
