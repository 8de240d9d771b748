// C01: the shared E02/E03 accumulator fed from columns vs from rows at
// 100M rows.
//
// Not a paper experiment — this is the performance gate for the
// columnar record store (ROADMAP item 1). It generates a synthetic
// 100M-row job stream (sim/synthetic.hpp) into BOTH representations and
// runs the E02 exit breakdown and the E03 per-user aggregation on each:
// the one analysis::JobGroups accumulator, driven by its row driver
// (analysis::group_jobs) and by its column driver
// (columnar::group_jobs). It checks the columnar results are
// bit-identical to the row results (exact counts AND exact f64 sums) and
// requires the columnar scans to be at least 5x faster. Either failure
// is fatal: a silent parity break or a performance regression exits 1.
//
// Row count: FAILMINE_C01_ROWS=<N> (default 100,000,000). The stored
// bytes/row of each representation are reported alongside the speedups
// because the speedup IS the memory-traffic ratio: E02 touches 9 bytes
// per row of the column store vs a ~112-byte JobRecord stride.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "analysis/accumulators.hpp"
#include "bench_common.hpp"
#include "columnar/builder.hpp"
#include "columnar/engine.hpp"
#include "columnar/table.hpp"
#include "core/joint_analyzer.hpp"
#include "sim/synthetic.hpp"
#include "topology/machine.hpp"

namespace {

using namespace failmine;

std::uint64_t c01_rows() {
  static const std::uint64_t rows = [] {
    constexpr std::uint64_t kDefault = 100'000'000;
    if (const char* env = std::getenv("FAILMINE_C01_ROWS")) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && n > 0) return static_cast<std::uint64_t>(n);
      std::fprintf(stderr, "C01: ignoring bad FAILMINE_C01_ROWS=%s\n", env);
    }
    return kDefault;
  }();
  return rows;
}

sim::SyntheticJobStreamConfig stream_config() {
  sim::SyntheticJobStreamConfig config;
  config.rows = c01_rows();
  return config;
}

const topology::MachineConfig& machine() {
  static const topology::MachineConfig config{};
  return config;
}

using analysis::JobKey;

core::ExitBreakdown e02_rows(const std::vector<joblog::JobRecord>& rows) {
  return core::exit_breakdown_of(
      analysis::group_jobs(rows, JobKey::kExitClass, machine()));
}

core::ExitBreakdown e02_columns(const columnar::JobTable& table) {
  return core::exit_breakdown_of(
      columnar::group_jobs(table, JobKey::kExitClass, machine()));
}

std::vector<analysis::GroupStats> e03_rows(
    const std::vector<joblog::JobRecord>& rows) {
  return analysis::group_jobs(rows, JobKey::kUser, machine()).finalize();
}

std::vector<analysis::GroupStats> e03_columns(const columnar::JobTable& table) {
  return columnar::group_jobs(table, JobKey::kUser, machine()).finalize();
}

const std::vector<joblog::JobRecord>& row_jobs() {
  static const std::vector<joblog::JobRecord> jobs = [] {
    FAILMINE_TRACE_SPAN("c01.build_rows");
    std::vector<joblog::JobRecord> v;
    v.reserve(c01_rows());
    sim::generate_job_stream(stream_config(),
                             [&](const joblog::JobRecord& j) { v.push_back(j); });
    return v;
  }();
  return jobs;
}

const columnar::JobTable& columnar_jobs() {
  static const columnar::JobTable table = [] {
    FAILMINE_TRACE_SPAN("c01.build_columnar");
    columnar::JobTableBuilder b;
    b.reserve(c01_rows());
    sim::generate_job_stream(stream_config(),
                             [&](const joblog::JobRecord& j) { b.add(j); });
    std::vector<columnar::JobTableBuilder> chunks;
    chunks.push_back(std::move(b));
    return columnar::JobTableBuilder::merge(std::move(chunks));
  }();
  return table;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "C01 FATAL: %s\n", what);
  std::exit(1);
}

/// Wall time of the best of `reps` runs of `fn` (cold caches dominate
/// run 1; the best run is the steady-state scan cost).
template <class Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

void check_e02_parity(const core::ExitBreakdown& row,
                      const core::ExitBreakdown& col) {
  if (row.total_jobs != col.total_jobs) fail("E02 total_jobs mismatch");
  if (row.total_failures != col.total_failures)
    fail("E02 total_failures mismatch");
  if (row.user_caused_share != col.user_caused_share)
    fail("E02 user_caused_share mismatch");
  if (row.system_caused_share != col.system_caused_share)
    fail("E02 system_caused_share mismatch");
  if (row.rows.size() != col.rows.size()) fail("E02 row count mismatch");
  for (std::size_t i = 0; i < row.rows.size(); ++i) {
    const core::ExitBreakdownRow& a = row.rows[i];
    const core::ExitBreakdownRow& b = col.rows[i];
    if (a.exit_class != b.exit_class) fail("E02 exit_class mismatch");
    if (a.jobs != b.jobs) fail("E02 per-class jobs mismatch");
    if (a.core_hours != b.core_hours)
      fail("E02 per-class core_hours mismatch (f64 bit parity)");
    if (a.share_of_jobs != b.share_of_jobs) fail("E02 share_of_jobs mismatch");
    if (a.share_of_failures != b.share_of_failures)
      fail("E02 share_of_failures mismatch");
  }
}

void check_e03_parity(const std::vector<analysis::GroupStats>& row,
                      const std::vector<analysis::GroupStats>& col) {
  if (row.size() != col.size()) fail("E03 group count mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) {
    const analysis::GroupStats& a = row[i];
    const analysis::GroupStats& b = col[i];
    if (a.group_id != b.group_id) fail("E03 group_id mismatch");
    if (a.jobs != b.jobs) fail("E03 jobs mismatch");
    if (a.failures != b.failures) fail("E03 failures mismatch");
    if (a.user_caused_failures != b.user_caused_failures)
      fail("E03 user_caused_failures mismatch");
    if (a.system_caused_failures != b.system_caused_failures)
      fail("E03 system_caused_failures mismatch");
    if (a.core_hours != b.core_hours)
      fail("E03 core_hours mismatch (f64 bit parity)");
    if (a.failed_core_hours != b.failed_core_hours)
      fail("E03 failed_core_hours mismatch (f64 bit parity)");
  }
}

void print_table() {
  const std::uint64_t n = c01_rows();
  std::printf("\n================================================================\n");
  std::printf("C01  E02/E03 accumulator: column driver vs row driver\n");
  std::printf("gate: columnar >= 5x on E02 and E03, bit-exact results\n");
  std::printf("rows: %llu (FAILMINE_C01_ROWS to override)\n",
              static_cast<unsigned long long>(n));
  std::printf("================================================================\n");

  const std::vector<joblog::JobRecord>& rows = row_jobs();
  const columnar::JobTable& table = columnar_jobs();
  if (rows.size() != n || table.rows() != n) fail("build row-count mismatch");

  const double row_bytes_per_row =
      static_cast<double>(rows.capacity() * sizeof(joblog::JobRecord)) /
      static_cast<double>(n);
  const double col_bytes_per_row =
      static_cast<double>(table.bytes()) / static_cast<double>(n);
  std::printf("\nstored bytes/row   row: %6.1f   columnar: %6.1f   (%.1fx smaller)\n",
              row_bytes_per_row, col_bytes_per_row,
              row_bytes_per_row / col_bytes_per_row);

  constexpr int kReps = 3;
  core::ExitBreakdown e02_row, e02_col;
  std::vector<analysis::GroupStats> e03_row, e03_col;

  const double t_e02_row =
      best_seconds(kReps, [&] { e02_row = e02_rows(rows); });
  const double t_e02_col =
      best_seconds(kReps, [&] { e02_col = e02_columns(table); });
  const double t_e03_row =
      best_seconds(kReps, [&] { e03_row = e03_rows(rows); });
  const double t_e03_col =
      best_seconds(kReps, [&] { e03_col = e03_columns(table); });

  check_e02_parity(e02_row, e02_col);
  check_e03_parity(e03_row, e03_col);
  std::printf("parity: E02 and E03 columnar results bit-identical to row results\n");

  const double ns = 1e9 / static_cast<double>(n);
  const double s_e02 = t_e02_row / t_e02_col;
  const double s_e03 = t_e03_row / t_e03_col;
  std::printf("\n%-22s %12s %12s %10s\n", "scan", "row", "columnar", "speedup");
  std::printf("%-22s %9.2f ns %9.2f ns %9.2fx\n", "E02 exit breakdown",
              t_e02_row * ns, t_e02_col * ns, s_e02);
  std::printf("%-22s %9.2f ns %9.2f ns %9.2fx\n", "E03 per-user stats",
              t_e03_row * ns, t_e03_col * ns, s_e03);
  std::printf("(per-row cost; best of %d runs each)\n", kReps);

  if (s_e02 < 5.0) fail("E02 columnar speedup below 5x gate");
  if (s_e03 < 5.0) fail("E03 columnar speedup below 5x gate");
  std::printf("gate: PASS (>= 5.0x on both scans)\n");
}

void BM_ColumnarExitBreakdown(benchmark::State& state) {
  const columnar::JobTable& table = columnar_jobs();
  for (auto _ : state) {
    core::ExitBreakdown b = e02_columns(table);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.rows()));
}
BENCHMARK(BM_ColumnarExitBreakdown)->Unit(benchmark::kMillisecond);

void BM_ColumnarPerUserStats(benchmark::State& state) {
  const columnar::JobTable& table = columnar_jobs();
  for (auto _ : state) {
    std::vector<analysis::GroupStats> s = e03_columns(table);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.rows()));
}
BENCHMARK(BM_ColumnarPerUserStats)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  failmine::bench::ObsSession obs(&argc, argv);
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
