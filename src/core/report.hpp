// failmine/core/report.hpp
//
// Machine-checkable takeaway report.
//
// The paper distills its analysis into 22 takeaways; the abstract commits
// to a handful of quantitative ones (T-A .. T-F in DESIGN.md). This module
// evaluates each reproducible headline claim against a dataset and reports
// measured-vs-expected with a tolerance verdict, which the integration
// tests check. EXPERIMENTS.md is not generated from it: its tables are
// copied by hand from the bench binaries, and can drift from what the
// code measures.

#pragma once

#include <string>
#include <vector>

#include "core/joint_analyzer.hpp"

namespace failmine::core {

/// One evaluated takeaway.
struct Takeaway {
  std::string id;           ///< "T-A", "T-B1", ...
  std::string claim;        ///< human-readable statement
  double expected = 0.0;    ///< paper value (scaled where applicable)
  double measured = 0.0;
  double rel_tolerance = 0.0;
  bool pass = false;
  std::string unit;
};

/// Expected values are the paper's; counts scale with `trace_scale`
/// (1.0 = paper-sized trace).
struct ReportConfig {
  double trace_scale = 1.0;
  FilterConfig filter;  ///< similarity-filter settings for the MTTI claims
};

/// Evaluates every reproducible headline claim.
std::vector<Takeaway> evaluate_takeaways(const JointAnalyzer& analyzer,
                                         const ReportConfig& config);

/// Renders the report as an aligned text table.
std::string format_report(const std::vector<Takeaway>& takeaways);

/// Renders the report as a JSON array (for dashboards / CI artifacts).
std::string format_report_json(const std::vector<Takeaway>& takeaways);

/// True if every takeaway passed.
bool all_pass(const std::vector<Takeaway>& takeaways);

}  // namespace failmine::core
