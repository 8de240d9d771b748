#include "answers.hpp"

#include <algorithm>
#include <map>

#include "helpers.hpp"

namespace perfbench {

namespace {

using namespace failmine;

template <class Counts>
void add_counts(Digest& d, const Counts& counts) {
  d.add_u64(counts.size());
  for (const std::uint64_t c : counts) d.add_u64(c);
}

void add_groups(Digest& d, const std::vector<analysis::GroupStats>& groups) {
  d.add_u64(groups.size());
  for (const analysis::GroupStats& g : groups) {
    d.add_u64(g.group_id);
    d.add_u64(g.jobs);
    d.add_u64(g.failures);
    d.add_u64(g.user_caused_failures);
    d.add_u64(g.system_caused_failures);
    d.add_f64(g.core_hours);
    d.add_f64(g.failed_core_hours);
  }
}

template <class Key>
void add_severity_map(Digest& d,
                      const std::map<Key, analysis::SeverityCounts>& m) {
  d.add_u64(m.size());
  for (const auto& [key, counts] : m) {
    d.add_u64(static_cast<std::uint64_t>(key));
    add_counts(d, counts);
  }
}

void add_exit_counts(Digest& d, const core::ExitBreakdown& e) {
  d.add_u64(e.total_jobs);
  d.add_u64(e.total_failures);
  d.add_u64(e.rows.size());
  for (const core::ExitBreakdownRow& row : e.rows) {
    d.add_u64(static_cast<std::uint64_t>(row.exit_class));
    d.add_u64(row.jobs);
  }
}

}  // namespace

NamedDigests digest_queries(const QueryAnswers& a) {
  NamedDigests out;
  const auto put = [&out](const char* name, const auto& fill) {
    Digest d;
    fill(d);
    out.emplace_back(name, d.value());
  };
  put("e01.dataset_summary", [&a](Digest& d) {
    d.add_f64(a.summary.span_days);
    d.add_u64(a.summary.jobs);
    d.add_u64(a.summary.tasks);
    d.add_u64(a.summary.ras_events);
    add_counts(d, a.summary.ras_by_severity);
    d.add_u64(a.summary.io_records);
    d.add_f64(a.summary.total_core_hours);
  });
  put("e02.exit_breakdown", [&a](Digest& d) {
    add_exit_counts(d, a.exits);
    for (const core::ExitBreakdownRow& row : a.exits.rows) {
      d.add_f64(row.core_hours);
      d.add_f64(row.share_of_jobs);
      d.add_f64(row.share_of_failures);
    }
    d.add_f64(a.exits.user_caused_share);
    d.add_f64(a.exits.system_caused_share);
  });
  put("e03.per_user_stats", [&a](Digest& d) { add_groups(d, a.users); });
  put("e03.per_project_stats",
      [&a](Digest& d) { add_groups(d, a.projects); });
  put("e06.ras_breakdown", [&a](Digest& d) {
    d.add_u64(a.ras.total_events);
    add_counts(d, a.ras.by_severity);
    add_severity_map(d, a.ras.by_component);
    add_severity_map(d, a.ras.by_category);
  });
  put("e11.submissions_by_hour",
      [&a](Digest& d) { add_counts(d, a.submissions_by_hour); });
  put("e11.submissions_by_weekday",
      [&a](Digest& d) { add_counts(d, a.submissions_by_weekday); });
  put("e11.failures_by_hour",
      [&a](Digest& d) { add_counts(d, a.failures_by_hour); });
  put("e11.events_by_hour",
      [&a](Digest& d) { add_counts(d, a.events_by_hour); });
  put("e11.monthly_submissions",
      [&a](Digest& d) { add_counts(d, a.monthly_submissions); });
  put("e11.monthly_failures",
      [&a](Digest& d) { add_counts(d, a.monthly_failures); });
  put("e11.monthly_fatal_events",
      [&a](Digest& d) { add_counts(d, a.monthly_fatal_events); });
  return out;
}

NamedDigests digest_takeaways(const std::vector<core::Takeaway>& takeaways) {
  NamedDigests out;
  for (const core::Takeaway& t : takeaways) {
    Digest d;
    d.add_string(t.id);
    d.add_f64(t.measured);
    out.emplace_back("takeaway." + t.id, d.value());
  }
  return out;
}

std::size_t mismatches(const NamedDigests& want, const NamedDigests& got) {
  std::size_t bad = 0;
  for (const auto& [name, digest] : want) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const auto& g) {
      return g.first == name;
    });
    if (it == got.end() || it->second != digest) ++bad;
  }
  return bad;
}

StreamFacts facts_of(const stream::StreamSnapshot& snapshot) {
  StreamFacts f;
  f.exits = snapshot.exit_breakdown;
  f.severity_totals = snapshot.severity_totals;
  f.fatal_input_events = snapshot.fatal_input_events;
  f.interruptions = snapshot.interruptions;
  f.mtti = snapshot.mtti;
  f.window_begin = snapshot.window_begin;
  f.window_end = snapshot.window_end;
  return f;
}

std::uint64_t digest_stream(const StreamFacts& f) {
  Digest d;
  add_exit_counts(d, f.exits);
  add_counts(d, f.severity_totals);
  d.add_u64(f.fatal_input_events);
  d.add_u64(f.interruptions);
  d.add_u64(f.mtti.interruptions);
  d.add_f64(f.mtti.mtti_days);
  d.add_f64(f.mtti.span_days);
  d.add_u64(f.mtti.intervals_days.size());
  for (const double v : f.mtti.intervals_days) d.add_f64(v);
  d.add_i64(f.window_begin);
  d.add_i64(f.window_end);
  return d.value();
}

}  // namespace perfbench
