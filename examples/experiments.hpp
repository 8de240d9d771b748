// The paper's tables as one command: `failmine_cli experiments`.
//
// Simulates the documented trace once and prints E01–E14 and X01–X08 as
// marked blocks (`<!-- BEGIN E09 -->`, a text fence, the table, the
// closing fence, `<!-- END E09 -->`), preceded by one `trace` block that
// names the scale, seed and span. EXPERIMENTS.md holds the same blocks;
// check_experiments.cmake compares the two and rewrites the doc's blocks
// with -DWRITE=ON.

#pragma once

#include <cstdio>

#include "columnar/engine.hpp"
#include "core/joint_analyzer.hpp"
#include "sim/simulator.hpp"

namespace failmine::experiments {

/// Everything the tables read: the simulated trace (E07/E14 print its
/// ground-truth episode count and E09 the injected weak-board fraction,
/// neither of which a CSV dataset holds), the joint analyzer over it, and
/// the row-backed query engine that answers E02/E03/E06/E11.
/// The analyzer and the engine borrow `data`, so the input is never
/// copied or moved.
struct ExperimentInput {
  explicit ExperimentInput(const sim::SimConfig& sim_config);
  ExperimentInput(const ExperimentInput&) = delete;
  ExperimentInput& operator=(const ExperimentInput&) = delete;

  const sim::SimConfig config;
  const sim::SimResult data;
  const core::JointAnalyzer analyzer;
  const columnar::QueryEngine engine;
};

/// Prints the `trace` block, then every experiment's table in E01…E14,
/// X01…X08 order, each inside an `experiments.<id>` trace span.
void print_all(const ExperimentInput& input, std::FILE* out);

}  // namespace failmine::experiments
