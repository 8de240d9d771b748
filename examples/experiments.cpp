#include "experiments.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/cooccurrence.hpp"
#include "analysis/io_behavior.hpp"
#include "analysis/locality.hpp"
#include "analysis/queue_wait.hpp"
#include "analysis/ras_breakdown.hpp"
#include "analysis/structure.hpp"
#include "analysis/temporal.hpp"
#include "analysis/torus_locality.hpp"
#include "analysis/user_stats.hpp"
#include "core/attribution.hpp"
#include "core/checkpoint.hpp"
#include "core/distfit_study.hpp"
#include "core/event_filter.hpp"
#include "core/lead_time.hpp"
#include "core/mtbf.hpp"
#include "core/mtti.hpp"
#include "core/trend.hpp"
#include "core/user_reliability.hpp"
#include "distfit/fit.hpp"
#include "joblog/exit_status.hpp"
#include "obs/trace.hpp"
#include "predict/config.hpp"
#include "raslog/message_catalog.hpp"
#include "stats/bootstrap.hpp"
#include "stats/concentration.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"

namespace failmine::experiments {

ExperimentInput::ExperimentInput(const sim::SimConfig& sim_config)
    : config(sim_config),
      data(sim::simulate(config)),
      analyzer(data.job_log, data.task_log, data.ras_log, data.io_log,
               config.machine),
      engine(data.job_log, data.task_log, data.ras_log, data.io_log,
             config.machine) {}

namespace {

/// printf's %llu argument for any unsigned count.
unsigned long long ull(unsigned long long count) { return count; }

// E01 — data-source summary (Table 1; T-F).
void e01(const ExperimentInput& in, std::FILE* out) {
  const auto s = in.analyzer.dataset_summary();
  const double scale = in.config.scale;
  const auto count = [&](const char* label, std::uint64_t n) {
    std::fprintf(out, "%-28s %16llu %18.0f\n", label, ull(n),
                 static_cast<double>(n) / scale);
  };
  std::fprintf(out, "%-28s %16s %18s\n", "metric", "measured",
               "paper-scale equiv");
  std::fprintf(out, "%-28s %16.1f %18s\n", "observation span (days)",
               s.span_days, "2001");
  count("jobs (scheduling log)", s.jobs);
  count("tasks (runjob log)", s.tasks);
  count("RAS events", s.ras_events);
  const char* const severities[] = {"INFO", "WARN", "FATAL"};
  for (std::size_t i = 0; i < 3; ++i)
    std::fprintf(out, "  of which %-17s %16llu %18s\n", severities[i],
                 ull(s.ras_by_severity[i]), "-");
  count("I/O (Darshan) records", s.io_records);
  std::fprintf(out, "%-28s %16.3e %18.3e   (paper: 3.244e+10)\n",
               "total core-hours", s.total_core_hours,
               s.total_core_hours / scale);
}

// E02 — job exit-status breakdown (Table 2 / Fig. 2; T-A).
void e02(const ExperimentInput& in, std::FILE* out) {
  const auto b = in.engine.exit_breakdown();
  std::fprintf(out, "%-20s %10s %9s %9s %14s\n", "exit class", "jobs",
               "of jobs", "of fails", "core-hours");
  for (const auto& row : b.rows) {
    std::fprintf(out, "%-20s %10llu %8.2f%% %8.2f%% %14.3e\n",
                 joblog::exit_class_name(row.exit_class).c_str(), ull(row.jobs),
                 100.0 * row.share_of_jobs, 100.0 * row.share_of_failures,
                 row.core_hours);
  }
  std::fprintf(out, "----------------------------------------------------------------\n");
  std::fprintf(out, "total jobs      %llu\n", ull(b.total_jobs));
  std::fprintf(out,
               "total failures  %llu   (paper-scale equiv %.0f, paper 99245)\n",
               ull(b.total_failures),
               static_cast<double>(b.total_failures) / in.config.scale);
  std::fprintf(out, "user-caused     %.2f%%  (paper 99.4%%)\n",
               100.0 * b.user_caused_share);
  std::fprintf(out, "system-caused   %.2f%%  (paper 0.6%%)\n",
               100.0 * b.system_caused_share);
}

void print_group(std::FILE* out, const char* label,
                 const std::vector<analysis::GroupStats>& stats) {
  for (auto metric : {analysis::GroupMetric::kJobs,
                      analysis::GroupMetric::kFailures,
                      analysis::GroupMetric::kCoreHours}) {
    const auto c = analysis::concentration(stats, metric);
    const char* metric_name = metric == analysis::GroupMetric::kJobs ? "jobs"
                              : metric == analysis::GroupMetric::kFailures
                                  ? "failures"
                                  : "core-hours";
    std::fprintf(out,
                 "%-8s %-10s gini=%.3f top1=%5.1f%% top10=%5.1f%% half@%zu/%zu\n",
                 label, metric_name, c.gini, 100.0 * c.top1_share,
                 100.0 * c.top10_share, c.groups_for_half, c.group_count);
  }
}

// E03 — failure concentration across users and projects (T-B).
void e03(const ExperimentInput& in, std::FILE* out) {
  const auto users = in.engine.per_user_stats();
  const auto projects = in.engine.per_project_stats();
  print_group(out, "user", users);
  print_group(out, "project", projects);

  // Lorenz curve of failures per user (deciles) — the figure's series.
  const auto lorenz = stats::lorenz_curve(
      analysis::metric_column(users, analysis::GroupMetric::kFailures));
  std::fprintf(out, "\nLorenz curve of failures per user (population share -> failure share):\n");
  for (double p = 0.1; p <= 1.0001; p += 0.1) {
    // Find the curve point at population share p.
    double share = 0.0;
    for (const auto& pt : lorenz) {
      if (pt.population_share <= p + 1e-12) share = pt.value_share;
    }
    std::fprintf(out, "  %3.0f%% -> %5.1f%%\n", 100.0 * p, 100.0 * share);
  }
}

void print_buckets(std::FILE* out, const char* title,
                   const std::vector<analysis::StructureBucket>& buckets) {
  std::fprintf(out, "\n%s (Spearman trend rho = %.3f)\n", title,
               analysis::bucket_trend(buckets));
  std::fprintf(out, "  %-22s %10s %10s %9s\n", "bucket", "jobs", "failures",
               "rate");
  for (const auto& b : buckets) {
    if (b.jobs == 0) continue;
    std::fprintf(out, "  %-22s %10llu %10llu %8.2f%%\n", b.label.c_str(),
                 ull(b.jobs), ull(b.failures), 100.0 * b.failure_rate());
  }
}

// E04 — failure rate vs scale, task count and core-hours (T-B).
void e04(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  print_buckets(out, "by allocation scale",
                analysis::failure_rate_by_scale(a.jobs()));
  print_buckets(out, "by task count",
                analysis::failure_rate_by_task_count(a.jobs(), 8));
  print_buckets(out, "by consumed core-hours",
                analysis::failure_rate_by_core_hours(a.jobs(), a.machine(), 8));
}

// E05 — best-fit family of failed-job runtimes per exit class (T-C).
void e05(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto rows = a.runtime_distribution_study(40);
  const auto print_picks = [out](const char* label,
                                 const core::ClassFitRow& row) {
    const auto& ks_fit = row.fits[row.best_by_ks];
    std::fprintf(out, "%-20s %7zu | %-16s %8.4f | %-16s | %-16s\n", label,
                 row.sample_size, distfit::family_name(ks_fit.family).c_str(),
                 ks_fit.ks.statistic,
                 distfit::family_name(row.fits[row.best_by_aic].family).c_str(),
                 distfit::family_name(row.fits[row.best_by_bic].family).c_str());
  };
  std::fprintf(out, "%-20s %7s | %-16s %8s | %-16s | %-16s\n", "exit class",
               "n", "best (KS)", "D", "best (AIC)", "best (BIC)");
  for (const auto& row : rows) {
    print_picks(joblog::exit_class_name(row.exit_class).c_str(), row);
    // Full candidate ranking for the figure's per-class panel.
    for (const auto& fit : row.fits) {
      std::fprintf(out, "    %-16s D=%.4f  logL=%.1f  AIC=%.1f",
                   distfit::family_name(fit.family).c_str(), fit.ks.statistic,
                   fit.log_lik, fit.aic);
      for (const auto& p : fit.dist->params())
        std::fprintf(out, "  %s=%.4g", p.name.c_str(), p.value);
      std::fprintf(out, "\n");
    }
  }
  // Joint system-failure sample (small per-class counts at reduced scale).
  std::vector<double> sys;
  for (auto cls : {joblog::ExitClass::kSystemHardware,
                   joblog::ExitClass::kSystemSoftware,
                   joblog::ExitClass::kSystemIo}) {
    const auto part = core::runtime_sample(a.jobs(), cls);
    sys.insert(sys.end(), part.begin(), part.end());
  }
  if (sys.size() >= 30) print_picks("SYSTEM_* (joint)", core::fit_sample(sys));
}

// E06 — RAS events by severity, component and category (T-D context).
void e06(const ExperimentInput& in, std::FILE* out) {
  const auto b = in.engine.ras_breakdown();
  const auto& sev = b.by_severity;
  const double total = static_cast<double>(b.total_events);
  std::fprintf(out, "severity   INFO=%llu (%.2f%%)  WARN=%llu (%.2f%%)  FATAL=%llu (%.3f%%)\n",
               ull(sev[0]), 100.0 * sev[0] / total,
               ull(sev[1]), 100.0 * sev[1] / total,
               ull(sev[2]), 100.0 * sev[2] / total);
  const auto print_counts = [out](const char* title, const auto& rows,
                                  auto name) {
    std::fprintf(out, "\n%-12s %10s %10s %10s\n", title, "INFO", "WARN",
                 "FATAL");
    for (const auto& [key, counts] : rows)
      std::fprintf(out, "%-12s %10llu %10llu %10llu\n", name(key).c_str(),
                   ull(counts[0]), ull(counts[1]), ull(counts[2]));
  };
  print_counts("component", b.by_component, raslog::component_name);
  print_counts("category", b.by_category, raslog::category_name);
}

// E07 — the similarity-filtering pipeline and its cluster sizes (T-E).
void e07(const ExperimentInput& in, std::FILE* out) {
  const auto& log = in.data.ras_log;
  const core::FilterConfig config;
  const auto pipeline = core::filtering_pipeline(log, config);
  std::fprintf(out, "window=%llds  spatial radius=%s\n",
               static_cast<long long>(config.window_seconds),
               topology::level_name(config.spatial_level).c_str());
  std::fprintf(out, "%-28s %10s %12s\n", "stage", "count", "reduction");
  // A trace without a FATAL event has empty stages: no reduction to print.
  const auto stage = [&](const char* name, std::uint64_t count) {
    if (count == 0)
      std::fprintf(out, "%-28s %10llu %12s\n", name, ull(count), "n/a");
    else
      std::fprintf(out, "%-28s %10llu %11.1fx\n", name, ull(count),
                   static_cast<double>(pipeline.raw) /
                       static_cast<double>(count));
  };
  stage("raw FATAL events", pipeline.raw);
  stage("temporal-only clusters", pipeline.temporal_only);
  stage("spatial-only components", pipeline.spatial_only);
  stage("combined (similarity) filter", pipeline.combined);
  std::fprintf(out, "ground-truth episodes in trace: %zu\n",
               in.data.episodes.size());

  // Cluster-size distribution (the burst-size histogram of the figure).
  const auto result = core::filter_events(log, config);
  std::map<std::uint64_t, std::uint64_t> size_hist;
  for (const auto& c : result.clusters) ++size_hist[c.member_count];
  std::fprintf(out, "\ncluster size -> frequency:\n");
  for (const auto& [size, freq] : size_hist)
    std::fprintf(out, "  %4llu events: %llu clusters\n", ull(size), ull(freq));
}

// E08 — MTTI, raw vs filtered (T-E: about 3.5 days).
void e08(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto raw = core::raw_mtti(a.ras(), raslog::Severity::kFatal,
                                  a.window_begin(), a.window_end());
  const auto filtered = a.interruption_analysis(core::FilterConfig{});
  const double s = in.config.scale;

  std::fprintf(out, "%-28s %12s %20s\n", "variant", "count", "MTTI (days)");
  std::fprintf(out, "%-28s %12llu %12.3f (x%.3g scale = %.2f)\n",
               "raw FATAL events", ull(raw.interruptions), raw.mtti_days, s,
               raw.mtti_days * s);
  std::fprintf(out, "%-28s %12llu %12.3f (x%.3g scale = %.2f; paper 3.5)\n",
               "filtered interruptions", ull(filtered.mtti.interruptions),
               filtered.mtti.mtti_days, s, filtered.mtti.mtti_days * s);
  std::fprintf(out, "filtering reduction: %.1fx\n",
               filtered.filter.reduction_factor());
  if (!filtered.mtti.intervals_days.empty()) {
    std::fprintf(out, "interval stats (days): mean=%.2f median=%.2f\n",
                 filtered.mtti.mean_interval_days,
                 filtered.mtti.median_interval_days);
  }
}

// E09 — spatial locality of fatal events (T-D).
void e09(const ExperimentInput& in, std::FILE* out) {
  const auto& log = in.data.ras_log;
  const auto& machine = in.config.machine;
  std::fprintf(out, "%-12s %8s %8s %8s %8s %10s %7s\n", "level", "hit",
               "total", "top1", "top5", "top10pct", "gini");
  for (auto level : {topology::Level::kRack, topology::Level::kMidplane,
                     topology::Level::kNodeBoard}) {
    const auto s = analysis::locality_summary(log, machine, level);
    std::fprintf(out, "%-12s %8zu %8zu %7.1f%% %7.1f%% %9.1f%% %7.3f\n",
                 topology::level_name(level).c_str(), s.components_hit,
                 s.components_total, 100.0 * s.top1_share,
                 100.0 * s.top5_share, 100.0 * s.top10pct_share, s.gini);
  }
  std::fprintf(out, "\nhottest 10 boards by fatal events:\n");
  const auto hot = analysis::events_per_component(
      log, topology::Level::kNodeBoard, raslog::Severity::kFatal);
  for (std::size_t i = 0; i < std::min<std::size_t>(10, hot.size()); ++i)
    std::fprintf(out, "  %-14s %6llu\n", hot[i].location.to_string().c_str(),
                 ull(hot[i].events));
  util::Rng rng(in.config.seed);
  const auto torus = analysis::torus_locality(log, machine, rng);
  std::fprintf(out,
               "\n5D-torus view: %zu located fatals, mean pair distance %.2f "
               "hops vs %.2f baseline (ratio %.3f; < 1 = clustered)\n",
               torus.located_events, torus.mean_pair_distance,
               torus.baseline_distance, torus.clustering_ratio);
  std::fprintf(out,
               "weak boards injected by the fault model: %zu (%.1f%% of %zu)\n",
               static_cast<std::size_t>(in.config.weak_board_fraction * 1536),
               100.0 * in.config.weak_board_fraction,
               analysis::components_at_level(machine,
                                             topology::Level::kNodeBoard));
}

// E10 — attributed RAS events vs per-user activity (T-D).
void e10(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto c = a.ras_user_correlations();
  std::fprintf(out, "users with activity: %zu\n", c.users);
  std::fprintf(out, "%-44s %8s\n", "pair (Spearman rank correlation)", "rho");
  std::fprintf(out, "%-44s %8.3f\n", "attributed events  vs core-hours",
               c.events_vs_core_hours);
  std::fprintf(out, "%-44s %8.3f\n", "attributed events  vs job count",
               c.events_vs_jobs);
  std::fprintf(out, "%-44s %8.3f\n", "attributed FATALs  vs core-hours",
               c.fatals_vs_core_hours);

  // Top-user table: the figure's scatter, reduced to its extremes.
  const auto input = core::user_event_correlation_input(
      a.jobs(), a.ras(), a.machine());
  std::vector<std::size_t> order(input.user_ids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return input.events_per_user[x] > input.events_per_user[y];
  });
  std::fprintf(out, "\ntop 8 users by attributed events:\n");
  std::fprintf(out, "  %-8s %10s %10s %14s\n", "user", "events", "jobs",
               "core-hours");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, order.size()); ++i) {
    const std::size_t r = order[i];
    std::fprintf(out, "  %-8u %10.0f %10.0f %14.3e\n", input.user_ids[r],
                 input.events_per_user[r], input.jobs_per_user[r],
                 input.core_hours_per_user[r]);
  }
}

void print_profile(std::FILE* out, const char* label,
                   const analysis::HourlyProfile& p) {
  std::fprintf(out, "%-14s", label);
  std::uint64_t mx = 1;
  for (auto c : p) mx = std::max(mx, c);
  for (std::size_t h = 0; h < 24; ++h) {
    const int bars = static_cast<int>(8.0 * static_cast<double>(p[h]) /
                                      static_cast<double>(mx));
    std::fprintf(out, "%c", " .:-=+*#@"[bars]);
  }
  std::fprintf(out, "  peak/trough=%.2f\n", analysis::peak_to_trough(p));
}

// E11 — hour-of-day, weekday and monthly series of jobs and events.
void e11(const ExperimentInput& in, std::FILE* out) {
  const auto& engine = in.engine;
  std::fprintf(out, "hour-of-day profiles (0..23):\n");
  print_profile(out, "submissions", engine.submissions_by_hour());
  print_profile(out, "failures", engine.failures_by_hour());
  print_profile(out, "RAS events", engine.events_by_hour());

  const auto weekday = engine.submissions_by_weekday();
  std::fprintf(out, "\nsubmissions by weekday (Mon..Sun):");
  for (auto c : weekday) std::fprintf(out, " %llu", ull(c));
  std::fprintf(out, "\n  weekend dampening: Sat+Sun vs weekday mean = %.2f\n",
               (static_cast<double>(weekday[5] + weekday[6]) / 2.0) /
                   (static_cast<double>(weekday[0] + weekday[1] + weekday[2] +
                                        weekday[3] + weekday[4]) /
                    5.0));

  const auto origin = in.config.observation_start;
  const auto monthly = engine.monthly_submissions(origin);
  const auto monthly_fail = engine.monthly_failures(origin);
  std::fprintf(out, "\nfirst 12 months (submissions / failures):\n");
  for (std::size_t m = 0; m < std::min<std::size_t>(12, monthly.size()); ++m)
    std::fprintf(out, "  month %2zu: %6llu / %llu\n", m, ull(monthly[m]),
                 ull(m < monthly_fail.size() ? monthly_fail[m] : 0));
  std::fprintf(out, "  ... (%zu months total)\n", monthly.size());
}

// E12 — I/O of failed vs successful jobs (Darshan join).
void e12(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto c = analysis::compare_io(a.jobs(), a.io());
  std::fprintf(out, "%-26s %16s %16s\n", "metric", "successful", "failed");
  std::fprintf(out, "%-26s %16llu %16llu\n", "jobs",
               ull(c.successful.jobs_total), ull(c.failed.jobs_total));
  std::fprintf(out, "%-26s %15.1f%% %15.1f%%\n", "Darshan coverage",
               100.0 * c.successful.coverage, 100.0 * c.failed.coverage);
  std::fprintf(out, "%-26s %16.3e %16.3e\n", "median bytes read",
               c.successful.median_read_bytes, c.failed.median_read_bytes);
  std::fprintf(out, "%-26s %16.3e %16.3e\n", "median bytes written",
               c.successful.median_write_bytes, c.failed.median_write_bytes);
  std::fprintf(out, "%-26s %16.3e %16.3e\n", "mean bytes written",
               c.successful.mean_write_bytes, c.failed.mean_write_bytes);
  std::fprintf(out,
               "failed/successful median write ratio: %.2f (< 1: lost checkpoints)\n",
               c.write_median_ratio());

  // ECDF deciles of written bytes, the figure's two curves.
  const auto ok = analysis::write_bytes_sample(a.jobs(), a.io(), false);
  const auto bad = analysis::write_bytes_sample(a.jobs(), a.io(), true);
  const stats::Ecdf f_ok(ok), f_bad(bad);
  std::fprintf(out, "\nwritten-bytes quantiles (successful | failed):\n");
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
    std::fprintf(out, "  p%-4.0f %12.3e | %12.3e\n", 100.0 * p,
                 f_ok.quantile(p), f_bad.quantile(p));
}

// E13 — interruption-interval fit (T-C); under 2 intervals, no fit.
void e13(const ExperimentInput& in, std::FILE* out) {
  const core::FilterConfig filter;
  const std::size_t intervals =
      in.analyzer.interruption_analysis(filter).mtti.intervals_days.size();
  std::fprintf(out, "intervals: %zu\n", intervals);
  if (intervals < 2) {
    std::fprintf(out, "no fit: fewer than 2 intervals\n");
    return;
  }
  const auto row = in.analyzer.interruption_interval_fit(filter);
  std::fprintf(out, "%-18s %8s %10s %10s %10s   params\n", "family", "KS D",
               "p-value", "AIC", "BIC");
  for (const auto& fit : row.fits) {
    std::fprintf(out, "%-18s %8.4f %10.3g %10.1f %10.1f  ",
                 distfit::family_name(fit.family).c_str(), fit.ks.statistic,
                 fit.ks.p_value, fit.aic, fit.bic);
    for (const auto& p : fit.dist->params())
      std::fprintf(out, " %s=%.4g", p.name.c_str(), p.value);
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "best by KS:  %s\n",
               distfit::family_name(row.fits[row.best_by_ks].family).c_str());
  std::fprintf(out, "best by AIC: %s\n",
               distfit::family_name(row.fits[row.best_by_aic].family).c_str());
  std::fprintf(out, "best by BIC: %s\n",
               distfit::family_name(row.fits[row.best_by_bic].family).c_str());
}

// E14 — MTTI sensitivity to the filter window, radius and message match.
void e14(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const double s = in.config.scale;

  std::fprintf(out, "temporal window sweep (radius=midplane):\n");
  std::fprintf(out, "  %-10s %14s %18s\n", "window", "interruptions",
               "MTTI (paper-scale d)");
  for (std::int64_t window : {60, 300, 900, 1800, 3600, 7200, 21600}) {
    core::FilterConfig config;
    config.window_seconds = window;
    const auto r = a.interruption_analysis(config);
    std::fprintf(out, "  %8llds %14llu %18.2f\n",
                 static_cast<long long>(window),
                 ull(r.mtti.interruptions),
                 r.mtti.mtti_days * s);
  }

  std::fprintf(out, "\nspatial radius sweep (window=900s):\n");
  std::fprintf(out, "  %-14s %14s %18s\n", "radius", "interruptions",
               "MTTI (paper-scale d)");
  for (auto level : {topology::Level::kRack, topology::Level::kMidplane,
                     topology::Level::kNodeBoard,
                     topology::Level::kComputeCard}) {
    core::FilterConfig config;
    config.spatial_level = level;
    const auto r = a.interruption_analysis(config);
    std::fprintf(out, "  %-14s %14llu %18.2f\n",
                 topology::level_name(level).c_str(), ull(r.mtti.interruptions),
                 r.mtti.mtti_days * s);
  }

  std::fprintf(out, "\nmessage-id matching (window=900s, radius=midplane):\n");
  for (bool strict : {false, true}) {
    core::FilterConfig config;
    config.require_same_message = strict;
    const auto r = a.interruption_analysis(config);
    std::fprintf(out,
                 "  require_same_message=%-5s interruptions=%llu MTTI=%.2f d\n",
                 strict ? "true" : "false",
                 ull(r.mtti.interruptions),
                 r.mtti.mtti_days * s);
  }
  const double episodes = static_cast<double>(in.data.episodes.size());
  std::fprintf(out,
               "\nground truth: %.0f episodes -> MTTI %.2f paper-scale days\n",
               episodes, episodes > 0 ? 2001.0 / episodes * s : 2001.0);
}

// X01 — MTBF by component/category and MTTR-sweep availability.
void x01(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto filtered = a.interruption_analysis(core::FilterConfig{});
  const auto begin = a.window_begin();
  const auto end = a.window_end();
  const double s = in.config.scale;

  const auto& clusters = filtered.filter.clusters;
  const auto print_mtbf = [&](const char* title, const auto& rows, auto name) {
    std::fprintf(out, "%-12s %14s %16s %8s\n", title, "interruptions",
                 "MTBF (paper d)", "share");
    for (const auto& [key, row] : rows)
      std::fprintf(out, "%-12s %14llu %16.1f %7.1f%%\n", name(key).c_str(),
                   ull(row.interruptions), row.mtbf_days * s,
                   100.0 * row.share);
  };
  print_mtbf("component", core::mtbf_by_component(clusters, begin, end),
             raslog::component_name);
  std::fprintf(out, "\n");
  print_mtbf("category", core::mtbf_by_category(clusters, begin, end),
             raslog::category_name);

  std::fprintf(out, "\navailability (MTTR sweep, midplane blast radius):\n");
  std::fprintf(out, "  %-12s %14s %14s\n", "MTTR (h)", "lost mp-hours",
               "availability");
  for (double mttr : {1.0, 4.0, 8.0, 24.0}) {
    core::AvailabilityConfig config;
    config.mean_repair_hours = mttr;
    const auto r =
        core::estimate_availability(clusters, a.machine(), begin, end, config);
    std::fprintf(out, "  %-12.1f %14.1f %13.5f%%\n", mttr,
                 r.lost_midplane_hours, 100.0 * r.availability);
  }
  std::fprintf(out,
               "(note: at scale %.3g the trace has 1/%.0f of the paper's\n"
               " interruptions, so trace availability is optimistic by the\n"
               " same factor; MTBF columns above are already rescaled)\n",
               s, 1.0 / s);
}

// X02 — WARN -> FATAL lead times and precursor message ids.
void x02(const ExperimentInput& in, std::FILE* out) {
  const auto clusters =
      in.analyzer.interruption_analysis(core::FilterConfig{}).filter.clusters;
  const auto lead_times_at = [&](std::int64_t horizon_seconds) {
    core::LeadTimeConfig config;
    config.horizon_seconds = horizon_seconds;
    return core::warning_lead_times(in.analyzer.ras(), clusters, config);
  };

  for (std::int64_t horizon : predict::kLeadTimeHorizonsSeconds) {
    const auto r = lead_times_at(horizon);
    std::fprintf(out,
                 "horizon %6llds: coverage %5.1f%%  median lead %7.0fs  "
                 "mean %7.0fs\n",
                 static_cast<long long>(horizon), 100.0 * r.coverage,
                 r.median_lead_seconds, r.mean_lead_seconds);
  }

  const auto r = lead_times_at(predict::kDefaultPrecursorHorizonSeconds);
  std::map<std::string, int> by_message;
  for (const auto& p : r.per_interruption)
    if (p.lead_seconds) ++by_message[p.warn_message_id];
  std::fprintf(out, "\nprecursor WARN message ids (%llds horizon):\n",
               static_cast<long long>(predict::kDefaultPrecursorHorizonSeconds));
  for (const auto& [msg, count] : by_message)
    std::fprintf(out, "  %s  %d\n", msg.c_str(), count);
  std::fprintf(out, "interruptions without any precursor: %llu of %zu\n",
               ull(r.without_precursor), r.per_interruption.size());
}

void print_ci(std::FILE* out, const char* label,
              const stats::BootstrapResult& r, double rescale = 1.0) {
  std::fprintf(out, "%-38s %10.4g  [%10.4g, %10.4g]  se=%.3g\n", label,
               r.point_estimate * rescale, r.lower * rescale,
               r.upper * rescale, r.standard_error * rescale);
}

// X03 — bootstrap 95% CIs on the headline statistics.
void x03(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const double s = in.config.scale;
  util::Rng rng(4242);
  constexpr std::size_t kReps = 1000;

  std::fprintf(out, "%-38s %10s  %24s\n", "statistic (95% CI, 1000 reps)",
               "point", "interval");

  // Mean inter-interruption interval (paper-scale days).
  const auto filtered = a.interruption_analysis(core::FilterConfig{});
  if (filtered.mtti.intervals_days.size() >= 5) {
    const auto ci = stats::bootstrap_mean(filtered.mtti.intervals_days, kReps,
                                          0.95, rng);
    print_ci(out, "mean interruption interval (d)", ci, s);
  }

  // Gini of failures per user.
  const auto users = analysis::per_user_stats(a.jobs(), a.machine());
  const auto failures =
      analysis::metric_column(users, analysis::GroupMetric::kFailures);
  print_ci(out, "gini of failures per user",
           stats::bootstrap_gini(failures, kReps, 0.95, rng));

  // Median execution length of app-error failures (seconds).
  const auto app_sample =
      core::runtime_sample(a.jobs(), joblog::ExitClass::kUserAppError);
  print_ci(out, "median app-error runtime (s)",
           stats::bootstrap_median(app_sample, kReps, 0.95, rng));

  // Median written bytes of failed jobs would need the io join; median
  // user-kill runtime instead exercises the heavy-tailed class.
  const auto kill_sample =
      core::runtime_sample(a.jobs(), joblog::ExitClass::kUserKill);
  print_ci(out, "median user-kill runtime (s)",
           stats::bootstrap_median(kill_sample, kReps, 0.95, rng));
}

// X04 — queue wait vs allocation size, queue and outcome.
void x04(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  std::fprintf(out,
               "by allocation size (Spearman size-vs-median-wait rho = %.3f):\n",
               analysis::wait_scale_trend(a.jobs()));
  std::fprintf(out, "  %-10s %8s %10s %10s %10s\n", "nodes", "jobs",
               "mean (s)", "median", "p90");
  for (const auto& [nodes, w] : analysis::wait_by_scale(a.jobs()))
    std::fprintf(out, "  %-10u %8llu %10.0f %10.0f %10.0f\n", nodes,
                 ull(w.jobs), w.mean_wait_seconds, w.median_wait_seconds,
                 w.p90_wait_seconds);

  std::fprintf(out, "\nby queue:\n");
  for (const auto& [queue, w] : analysis::wait_by_queue(a.jobs()))
    std::fprintf(out, "  %-18s jobs=%-8llu median=%.0fs p90=%.0fs\n",
                 queue.c_str(), ull(w.jobs), w.median_wait_seconds,
                 w.p90_wait_seconds);

  const auto outcome = analysis::wait_by_outcome(a.jobs());
  std::fprintf(out,
               "\nby outcome: successful median=%.0fs, failed median=%.0fs\n",
               outcome.successful.median_wait_seconds,
               outcome.failed.median_wait_seconds);
}

// X05 — user-perceived reliability: system-kill exposure per user.
void x05(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto study = core::user_reliability_study(a.jobs(), a.machine());
  std::fprintf(out, "users: %zu, of which %llu experienced a system kill\n",
               study.users.size(), ull(study.users_with_kills));
  std::fprintf(out, "machine-wide exposure per kill: %s node-days\n",
               util::format_double(study.machine_node_days_per_kill, 3,
                                   util::FloatStyle::kScientific)
                   .c_str());
  std::fprintf(out, "exposure vs kills Spearman rho: %.3f\n",
               study.exposure_kill_correlation);
  std::fprintf(out, "core-hours lost to system kills: %.3e\n",
               study.total_lost_core_hours);

  std::fprintf(out, "\ntop 10 users by exposure:\n");
  std::fprintf(out, "  %-8s %8s %10s %14s %8s %12s\n", "user", "jobs",
               "kills", "node-days", "lost%", "nd/kill");
  for (std::size_t i = 0; i < std::min<std::size_t>(10, study.users.size());
       ++i) {
    const auto& u = study.users[i];
    std::fprintf(out, "  %-8u %8llu %10llu %14.3e %7.2f%% %12s\n", u.user_id,
                 ull(u.jobs), ull(u.system_kills), u.node_days,
                 100.0 * u.loss_fraction(),
                 util::format_double(u.node_days_between_kills, 0).c_str());
  }
}

void print_trend(std::FILE* out, const char* label,
                 const core::TrendResult& r) {
  std::fprintf(out,
               "%-22s months=%zu mean/month=%.1f slope=%.3f/month "
               "(relative %.4f) R2=%.3f\n",
               label, r.monthly_counts.size(), r.mean_per_month, r.fit.slope,
               r.relative_slope, r.fit.r_squared);
}

// X06 — monthly reliability trend over the system lifetime.
void x06(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto origin = in.config.observation_start;
  const auto end = in.config.observation_end();
  const auto filtered = a.interruption_analysis(core::FilterConfig{});

  const auto itrend =
      core::interruption_trend(filtered.filter.clusters, origin, end);
  const auto ftrend = core::failure_trend(a.jobs(), origin, end);
  print_trend(out, "interruptions", itrend);
  print_trend(out, "failed jobs", ftrend);

  std::fprintf(out, "\nfailed jobs per quarter:\n");
  for (std::size_t m = 0; m + 2 < ftrend.monthly_counts.size(); m += 3) {
    const std::uint64_t q = ftrend.monthly_counts[m] +
                            ftrend.monthly_counts[m + 1] +
                            ftrend.monthly_counts[m + 2];
    std::fprintf(out, "  Q%02zu %6llu ", m / 3 + 1, ull(q));
    const int bars = static_cast<int>(q / 40);
    for (int b = 0; b < bars && b < 40; ++b) std::fprintf(out, "#");
    std::fprintf(out, "\n");
  }
  std::fprintf(out, "\nReading: the simulated system is stationary by design "
                    "(relative slope ~= 0); on an aging machine this bench is\n"
                    "where the drift would appear.\n");
}

// X07 — error-propagation lift between RAS categories.
void x07(const ExperimentInput& in, std::FILE* out) {
  // The window comes from the shared constant so the offline lift matrix
  // and the online predictor measure propagation over the same horizon.
  analysis::CooccurrenceConfig config;
  config.window_seconds = predict::kCooccurrenceWindowSeconds;
  const auto r = analysis::category_cooccurrence(in.data.ras_log, config);
  std::fprintf(out, "qualifying events (WARN+): %llu over %.0f days\n",
               ull(r.qualifying_events), r.span_seconds / 86400.0);

  std::fprintf(out,
               "\nlift matrix (row triggers column; >1 = propagation):\n%-11s",
               "");
  for (auto c : raslog::kAllCategories)
    std::fprintf(out, " %8.8s", raslog::category_name(c).c_str());
  std::fprintf(out, "\n");
  for (std::size_t a = 0; a < analysis::kCategoryCount; ++a) {
    std::fprintf(out, "%-11s",
                 raslog::category_name(raslog::kAllCategories[a]).c_str());
    for (std::size_t b = 0; b < analysis::kCategoryCount; ++b)
      std::fprintf(out, " %8.2f", r.lift[a][b]);
    std::fprintf(out, "\n");
  }

  std::fprintf(out, "\nstrongest channels (lift >= 2, >= 5 observations):\n");
  for (const auto& ch : analysis::top_channels(r)) {
    std::fprintf(out, "  %-10s -> %-10s lift=%7.1f (n=%llu)\n",
                 raslog::category_name(ch.trigger).c_str(),
                 raslog::category_name(ch.follower).c_str(), ch.lift,
                 ull(ch.count));
  }
}

// X08 — Young/Daly checkpoint intervals from the measured hazard.
void x08(const ExperimentInput& in, std::FILE* out) {
  const auto& a = in.analyzer;
  const auto hazard = core::estimate_hazard(a.jobs());
  std::fprintf(out,
               "measured hazard: %llu system kills over %.3e node-seconds "
               "= %.3e per node-second\n",
               ull(hazard.system_kills), hazard.node_seconds,
               hazard.per_node_second);
  std::fprintf(out,
               "(checkpoint write assumed %.0f s; bare-run comparison at "
               "%.0f h)\n\n",
               predict::kCheckpointWriteSeconds,
               predict::kReferenceRuntimeSeconds / 3600.0);

  const auto advice = core::recommend_checkpoints(
      a.jobs(), predict::kCheckpointWriteSeconds,
      predict::kReferenceRuntimeSeconds);
  std::fprintf(out, "%-10s %14s %16s %12s %12s\n", "nodes", "job MTBF (h)",
               "ckpt every (h)", "waste@opt", "waste bare");
  for (const auto& row : advice) {
    std::fprintf(out, "%-10u %14s %16s %11.2f%% %11.2f%%\n", row.nodes,
                 util::format_double(row.job_mtbf_hours, 1).c_str(),
                 util::format_double(row.optimal_interval_hours, 2).c_str(),
                 100.0 * row.waste_at_optimum, 100.0 * row.waste_without);
  }
  std::fprintf(out,
               "\nReading: the optimal interval shrinks as sqrt(1/nodes).\n"
               "At this hazard the crossover sits around 2k-4k nodes: below\n"
               "it a 48 h bare run loses less than the checkpoint overhead\n"
               "costs; above it checkpointing wins decisively (full-machine\n"
               "jobs: ~26%% expected loss bare vs ~7%% checkpointed).\n");
}

struct Experiment {
  const char* id;
  void (*print)(const ExperimentInput&, std::FILE*);
};

constexpr Experiment kExperiments[] = {
    {"E01", e01}, {"E02", e02}, {"E03", e03}, {"E04", e04}, {"E05", e05},
    {"E06", e06}, {"E07", e07}, {"E08", e08}, {"E09", e09}, {"E10", e10},
    {"E11", e11}, {"E12", e12}, {"E13", e13}, {"E14", e14}, {"X01", x01},
    {"X02", x02}, {"X03", x03}, {"X04", x04}, {"X05", x05}, {"X06", x06},
    {"X07", x07}, {"X08", x08},
};

void begin_block(std::FILE* out, const char* id) {
  std::fprintf(out, "<!-- BEGIN %s -->\n```text\n", id);
}

void end_block(std::FILE* out, const char* id) {
  std::fprintf(out, "```\n<!-- END %s -->\n", id);
}

}  // namespace

void print_all(const ExperimentInput& in, std::FILE* out) {
  begin_block(out, "trace");
  std::fprintf(out, "trace: scale=%.3g seed=%llu (%d days)\n", in.config.scale,
               ull(in.config.seed), in.config.observation_days);
  end_block(out, "trace");
  for (const auto& experiment : kExperiments) {
    std::fprintf(out, "\n");
    begin_block(out, experiment.id);
    {
      const obs::Span span(std::string("experiments.") + experiment.id);
      experiment.print(in, out);
    }
    end_block(out, experiment.id);
  }
}

}  // namespace failmine::experiments
