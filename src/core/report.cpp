#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <optional>

#include "analysis/io_behavior.hpp"
#include "analysis/locality.hpp"
#include "analysis/structure.hpp"
#include "analysis/user_stats.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace failmine::core {

namespace {

Takeaway make(std::string id, std::string claim, double expected,
              double measured, double rel_tol, std::string unit) {
  Takeaway t;
  t.id = std::move(id);
  t.claim = std::move(claim);
  t.expected = expected;
  t.measured = measured;
  t.rel_tolerance = rel_tol;
  t.unit = std::move(unit);
  const double denom = std::max(std::fabs(expected), 1e-12);
  t.pass = std::fabs(measured - expected) / denom <= rel_tol;
  return t;
}

/// For claims of the form "metric exceeds threshold".
Takeaway make_at_least(std::string id, std::string claim, double threshold,
                       double measured, std::string unit) {
  Takeaway t;
  t.id = std::move(id);
  t.claim = std::move(claim);
  t.expected = threshold;
  t.measured = measured;
  t.rel_tolerance = 0.0;
  t.unit = std::move(unit);
  t.pass = measured >= threshold;
  return t;
}

/// For "the best fit of a sample the report fits itself is one of
/// `accepted`" (T-C4, T-C5); `row` is empty when the sample was too small
/// to fit.
Takeaway fit_check(std::string id, const char* subject,
                   const std::optional<ClassFitRow>& row,
                   std::initializer_list<const char*> accepted) {
  Takeaway t;
  t.id = std::move(id);
  t.expected = 1.0;
  t.unit = "match";
  t.claim = subject;
  if (row) {
    const std::string got =
        distfit::family_name(row->fits[row->best_by_bic].family);
    t.claim += " best fit is ";
    t.claim += got;
    bool ok = false;
    for (const char* name : accepted) ok = ok || got == name;
    t.measured = ok ? 1.0 : 0.0;
  } else {
    t.claim += " best fit (insufficient sample)";
    t.measured = 0.0;
  }
  t.pass = t.measured == 1.0;
  return t;
}

/// T-C4's sample: system classes are fitted jointly (each alone can be a
/// small sample).
std::optional<ClassFitRow> system_runtime_fit(const joblog::JobLog& jobs) {
  std::vector<double> sample;
  for (joblog::ExitClass cls :
       {joblog::ExitClass::kSystemHardware, joblog::ExitClass::kSystemSoftware,
        joblog::ExitClass::kSystemIo}) {
    const auto part = runtime_sample(jobs, cls);
    sample.insert(sample.end(), part.begin(), part.end());
  }
  if (sample.size() < 30) return std::nullopt;
  return fit_sample(std::move(sample));
}

/// One analysis result, or the exception the analysis threw. A task fills
/// its slots on a worker; the report reads them on the calling thread,
/// where get() rethrows at the point at which the serial order calls that
/// analysis.
template <typename T>
class Slot {
 public:
  template <typename Compute>
  void fill(Compute&& compute) {
    try {
      value_.emplace(compute());
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  const T& get() const {
    if (error_) std::rethrow_exception(error_);
    return *value_;
  }

 private:
  std::optional<T> value_;
  std::exception_ptr error_;
};

/// The results the takeaways read: one slot per analysis call of the
/// serial report, declared in its order.
struct Results {
  Slot<DatasetSummary> summary;                          // T-F1, T-F2
  Slot<ExitBreakdown> breakdown;                         // T-A1, T-A2, T-A3
  Slot<double> user_top10_share;                         // T-B1
  Slot<double> scale_trend;                              // T-B2
  Slot<double> task_count_trend;                         // T-B3
  Slot<std::vector<ClassFitRow>> study;                  // T-C1 .. T-C3
  Slot<std::optional<ClassFitRow>> system_fit;           // T-C4
  Slot<analysis::LocalitySummary> board_locality;        // T-D1
  Slot<JointAnalyzer::RasCorrelations> correlations;     // T-D2
  Slot<FilteredMtti> mtti;                               // T-E1, T-E2
  Slot<double> project_gini;                             // T-B4
  Slot<double> core_hour_trend;                          // T-B5
  Slot<std::optional<ClassFitRow>> interval_fit;         // T-C5
  Slot<analysis::LocalitySummary> midplane_locality;     // T-D3
  Slot<MttiResult> raw;                                  // T-E3
  Slot<analysis::IoComparison> io;                       // T-S1
};

/// Runs the report's analyses as one table of tasks on one worker per
/// hardware thread, each task filling its own slots. The table is ordered
/// longest first: E10's attribution, the report's critical path, starts
/// at once, and the shorter tasks share the other workers.
Results run_analyses(const JointAnalyzer& analyzer,
                     const ReportConfig& config) {
  Results r;
  const joblog::JobLog& jobs = analyzer.jobs();
  const raslog::RasLog& ras = analyzer.ras();
  const topology::MachineConfig& machine = analyzer.machine();
  const std::function<void()> tasks[] = {
      [&] {
        r.correlations.fill([&] { return analyzer.ras_user_correlations(); });
      },
      [&] {
        r.study.fill([&] { return analyzer.runtime_distribution_study(); });
      },
      [&] { r.system_fit.fill([&] { return system_runtime_fit(jobs); }); },
      [&] {
        r.mtti.fill(
            [&] { return analyzer.interruption_analysis(config.filter); });
        r.interval_fit.fill([&]() -> std::optional<ClassFitRow> {
          const auto& intervals = r.mtti.get().mtti.intervals_days;
          if (intervals.size() < 20) return std::nullopt;
          return fit_sample(intervals);
        });
      },
      [&] {
        r.board_locality.fill([&] {
          return analysis::locality_summary(ras, machine,
                                            topology::Level::kNodeBoard);
        });
      },
      [&] {
        r.midplane_locality.fill([&] {
          return analysis::locality_summary(ras, machine,
                                            topology::Level::kMidplane);
        });
      },
      [&] {
        r.io.fill([&] { return analysis::compare_io(jobs, analyzer.io()); });
      },
      [&] {
        r.raw.fill([&] {
          return raw_mtti(ras, raslog::Severity::kFatal,
                          analyzer.window_begin(), analyzer.window_end());
        });
      },
      [&] {
        r.summary.fill([&] { return analyzer.dataset_summary(); });
        r.breakdown.fill([&] { return analyzer.exit_breakdown(); });
        r.user_top10_share.fill([&] {
          return analysis::concentration(
                     analysis::per_user_stats(jobs, machine),
                     analysis::GroupMetric::kFailures)
              .top10_share;
        });
        r.scale_trend.fill([&] {
          return analysis::bucket_trend(analysis::failure_rate_by_scale(jobs));
        });
        r.task_count_trend.fill([&] {
          return analysis::bucket_trend(
              analysis::failure_rate_by_task_count(jobs));
        });
        r.project_gini.fill([&] {
          return analysis::concentration(
                     analysis::per_project_stats(jobs, machine),
                     analysis::GroupMetric::kFailures)
              .gini;
        });
        r.core_hour_trend.fill([&] {
          return analysis::bucket_trend(
              analysis::failure_rate_by_core_hours(jobs, machine, 8));
        });
      },
  };
  util::run_parallel(std::size(tasks), util::hardware_threads(),
                     [&tasks](std::size_t i) { tasks[i](); });
  return r;
}

}  // namespace

std::vector<Takeaway> evaluate_takeaways(const JointAnalyzer& analyzer,
                                         const ReportConfig& config) {
  FAILMINE_TRACE_SPAN("report.evaluate_takeaways");
  const Results r = run_analyses(analyzer, config);

  std::vector<Takeaway> out;
  const double s = config.trace_scale;

  // T-F: observation span and total core-hours.
  const DatasetSummary& summary = r.summary.get();
  out.push_back(make("T-F1", "observation span is 2001 days", 2001.0,
                     summary.span_days, 0.02, "days"));
  out.push_back(make("T-F2", "total consumption is 32.44 B core-hours",
                     32.44e9 * s, summary.total_core_hours, 0.25, "core-h"));

  // T-A: failure count and cause split.
  const ExitBreakdown& breakdown = r.breakdown.get();
  out.push_back(make("T-A1", "job-scheduling log reports 99,245 failures",
                     99245.0 * s, static_cast<double>(breakdown.total_failures),
                     0.15, "jobs"));
  out.push_back(make("T-A2", "99.4 % of job failures are user-caused", 0.994,
                     breakdown.user_caused_share, 0.01, "fraction"));

  // T-B: concentration on users and monotone structure correlations.
  out.push_back(make_at_least(
      "T-B1", "failures concentrate on few users (top-10 share >= 25 %)",
      0.25, r.user_top10_share.get(), "fraction"));
  out.push_back(make_at_least(
      "T-B2", "failure rate rises with job scale (Spearman >= 0.5)", 0.5,
      r.scale_trend.get(), "rho"));
  out.push_back(make_at_least(
      "T-B3", "failure rate rises with task count (Spearman >= 0.5)", 0.5,
      r.task_count_trend.get(), "rho"));

  // T-C: per-class families. The paper reports Weibull / Pareto / inverse
  // Gaussian / Erlang-or-exponential depending on the error type; we check
  // that each expected family wins its class under the KS criterion.
  // Family identity is judged by BIC: on finite samples the KS distance
  // lets flexible 2-parameter families (log-logistic) edge out the true
  // one by luck, while the likelihood ranking is far stabler.
  const std::vector<ClassFitRow>& study = r.study.get();
  auto family_of = [&](joblog::ExitClass cls) -> std::string {
    for (const auto& row : study)
      if (row.exit_class == cls)
        return distfit::family_name(row.fits[row.best_by_bic].family);
    return "<insufficient sample>";
  };
  auto family_check = [&](std::string id, joblog::ExitClass cls,
                          std::initializer_list<const char*> accepted,
                          const char* label) {
    const std::string got = family_of(cls);
    bool ok = false;
    for (const char* name : accepted) ok = ok || got == name;
    Takeaway t;
    t.id = std::move(id);
    t.claim = std::string(label) + " best fit is " + got;
    t.expected = 1.0;
    t.measured = ok ? 1.0 : 0.0;
    t.pass = ok;
    t.unit = "match";
    return t;
  };
  out.push_back(family_check("T-C1", joblog::ExitClass::kUserAppError,
                             {"weibull", "gamma"}, "app-error runtime"));
  out.push_back(family_check("T-C2", joblog::ExitClass::kUserKill,
                             {"pareto"}, "user-kill runtime"));
  out.push_back(family_check("T-C3", joblog::ExitClass::kUserConfigError,
                             {"erlang", "gamma", "exponential"},
                             "config-error runtime"));
  out.push_back(fit_check("T-C4", "system-failure runtime",
                          r.system_fit.get(),
                          {"inverse_gaussian", "lognormal"}));

  // T-D: locality and RAS/user correlation.
  out.push_back(make_at_least(
      "T-D1", "fatal events show strong locality (board Gini >= 0.5)", 0.5,
      r.board_locality.get().gini, "gini"));
  out.push_back(make_at_least(
      "T-D2", "attributed events correlate with core-hours (rho >= 0.5)", 0.5,
      r.correlations.get().events_vs_core_hours, "rho"));

  // T-E: filtered MTTI.
  const FilteredMtti& fm = r.mtti.get();
  // At reduced scale there are proportionally fewer interruptions over the
  // same 2001 days, so the measured MTTI is 1/s times the paper's; rescale
  // back before comparing.
  out.push_back(make("T-E1", "filtered MTTI is about 3.5 days", 3.5,
                     fm.mtti.mtti_days * s, 0.25, "days"));
  out.push_back(make_at_least(
      "T-E2", "similarity filtering collapses fatal bursts (>= 5x)", 5.0,
      fm.filter.reduction_factor(), "x"));

  // --- Supplementary checkable takeaways (the paper frames its findings
  // as 22 takeaways; the seven below complete the reproducible set). ---

  // T-A3: the overall job failure rate (99,245 failures over the whole
  // scheduling log) is ~1 in 5 jobs.
  out.push_back(make(
      "T-A3", "about one in five jobs fails", 0.1984,
      breakdown.total_jobs > 0
          ? static_cast<double>(breakdown.total_failures) /
                static_cast<double>(breakdown.total_jobs)
          : 0.0,
      0.10, "fraction"));

  // T-B4: project-level concentration mirrors the user-level one.
  out.push_back(make_at_least(
      "T-B4", "failures concentrate on few projects (Gini >= 0.5)", 0.5,
      r.project_gini.get(), "gini"));

  // T-B5: failed jobs are truncated early, so low-core-hour buckets are
  // failure-enriched (a *negative* trend over core-hour buckets).
  Takeaway tb5;
  tb5.id = "T-B5";
  tb5.claim = "low-core-hour buckets are failure-enriched (trend < 0)";
  tb5.expected = 0.0;
  tb5.measured = r.core_hour_trend.get();
  tb5.unit = "rho";
  tb5.pass = tb5.measured < 0.0;
  out.push_back(tb5);

  // T-C5: intervals between filtered interruptions are memoryless —
  // Erlang/exponential-like (one of the families the abstract names).
  out.push_back(fit_check("T-C5", "interruption intervals",
                          r.interval_fit.get(),
                          {"erlang", "exponential", "gamma", "weibull"}));

  // T-D3: fatal locality holds one level up, at midplane granularity.
  out.push_back(make_at_least(
      "T-D3", "hottest 10% of midplanes absorb >= 15% of fatals",
      0.15, r.midplane_locality.get().top10pct_share, "fraction"));

  // T-E3: naive raw-FATAL counting overstates interruptions badly.
  const MttiResult& raw = r.raw.get();
  out.push_back(make_at_least(
      "T-E3", "raw FATAL counting understates MTTI by >= 5x", 5.0,
      raw.mtti_days > 0 ? fm.mtti.mtti_days / raw.mtti_days : 0.0, "x"));

  // T-S1: failed jobs lose their final checkpoint, writing less than
  // successful jobs at the median (I/O-log join).
  Takeaway ts1;
  ts1.id = "T-S1";
  ts1.claim = "failed jobs write less than successful ones (ratio < 0.8)";
  ts1.expected = 0.8;
  ts1.measured = r.io.get().write_median_ratio();
  ts1.unit = "ratio";
  ts1.pass = ts1.measured > 0.0 && ts1.measured < 0.8;
  out.push_back(ts1);

  return out;
}

std::string format_report(const std::vector<Takeaway>& takeaways) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-5s %-58s %14s %14s %6s\n", "id",
                "claim", "expected", "measured", "pass");
  out += line;
  out += std::string(101, '-') + "\n";
  for (const auto& t : takeaways) {
    std::snprintf(line, sizeof(line), "%-5s %-58s %14.4g %14.4g %6s\n",
                  t.id.c_str(), t.claim.c_str(), t.expected, t.measured,
                  t.pass ? "PASS" : "FAIL");
    out += line;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_report_json(const std::vector<Takeaway>& takeaways) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < takeaways.size(); ++i) {
    const Takeaway& t = takeaways[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": \"%s\", \"claim\": \"%s\", \"expected\": %.10g, "
                  "\"measured\": %.10g, \"tolerance\": %.10g, "
                  "\"unit\": \"%s\", \"pass\": %s}%s\n",
                  json_escape(t.id).c_str(), json_escape(t.claim).c_str(),
                  t.expected, t.measured, t.rel_tolerance,
                  json_escape(t.unit).c_str(), t.pass ? "true" : "false",
                  i + 1 < takeaways.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

bool all_pass(const std::vector<Takeaway>& takeaways) {
  for (const auto& t : takeaways)
    if (!t.pass) return false;
  return true;
}

}  // namespace failmine::core
