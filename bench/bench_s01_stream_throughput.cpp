// S01 — streaming ingestion throughput: records/sec through the full
// pipeline (ingest ring -> watermark reorder -> router -> shard workers)
// for 1 vs N shards, under the lossless blocking backpressure policy.
//
// The shard workers carry the per-record aggregate cost (exit-class
// accounting, GK quantile insert, space-saving updates), so on a
// multi-core host throughput should scale with the shard count until the
// single router thread saturates. The table reports the measured
// records/sec per shard count, the speedup over one shard, and asserts
// zero drops (blocking producers must never lose records).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/replay.hpp"
#include "stream/pipeline.hpp"

namespace {

using namespace failmine;

const std::vector<stream::StreamRecord>& replay() {
  static const std::vector<stream::StreamRecord> records = [] {
    FAILMINE_TRACE_SPAN("bench.replay_build");
    return sim::build_replay(bench::dataset());
  }();
  return records;
}

stream::StreamConfig make_config(std::size_t shards) {
  stream::StreamConfig config;
  config.machine = bench::dataset_config().machine;
  config.shard_count = shards;
  config.policy = stream::BackpressurePolicy::kBlock;
  config.max_lateness_seconds = 0;  // replay is already event-time ordered
  return config;
}

/// One full pipeline run; returns the final snapshot for the drop check.
stream::StreamSnapshot run_pipeline(std::size_t shards) {
  stream::StreamPipeline pipeline(make_config(shards));
  std::vector<stream::StreamRecord> batch;
  const auto& records = replay();
  for (std::size_t i = 0; i < records.size();) {
    const std::size_t n = std::min<std::size_t>(1024, records.size() - i);
    batch.assign(records.begin() + i, records.begin() + i + n);
    pipeline.push_batch(std::move(batch));
    i += n;
  }
  pipeline.finish();
  return pipeline.snapshot();
}

void print_table() {
  bench::print_header("S01", "streaming pipeline throughput",
                      "records/sec for 1 vs N shard workers (blocking policy)");
  std::printf("host concurrency: %u hardware threads\n",
              std::thread::hardware_concurrency());
  std::printf("%-8s %14s %14s %10s %8s\n", "shards", "records", "records/s",
              "speedup", "drops");
  // Build the input before the clock starts: replay() simulates the
  // dataset on its first call, which would otherwise land in the timed
  // 1-shard run and understate its throughput several times over.
  replay();
  double base_rate = 0.0;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto start = std::chrono::steady_clock::now();
    const auto snap = run_pipeline(shards);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double rate = static_cast<double>(snap.records_in) / secs;
    if (shards == 1) base_rate = rate;
    std::printf("%-8zu %14llu %14.0f %9.2fx %8llu\n", shards,
                static_cast<unsigned long long>(snap.records_in), rate,
                rate / base_rate,
                static_cast<unsigned long long>(snap.records_dropped));
    if (snap.records_dropped != 0) {
      std::fprintf(stderr, "FATAL: blocking policy dropped records\n");
      std::exit(1);
    }
  }
}

void BM_StreamPipeline(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto snap = run_pipeline(shards);
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(replay().size()));
}
BENCHMARK(BM_StreamPipeline)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_RingBuffer(benchmark::State& state) {
  // Raw queue cost floor: one producer, one consumer, no analysis work.
  for (auto _ : state) {
    stream::RingBuffer<int> ring(1 << 12, stream::BackpressurePolicy::kBlock);
    std::thread consumer([&] {
      std::vector<int> out;
      out.reserve(256);
      for (std::size_t n; (n = ring.pop_batch(out, 256)) > 0;) {
        out.clear();
        ring.release(n);
      }
    });
    std::vector<int> batch;
    for (int i = 0; i < 1 << 16; i += 256) {
      batch.assign(256, i);
      ring.push_batch(std::move(batch));
    }
    ring.close();
    consumer.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_RingBuffer)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  failmine::bench::ObsSession obs_session(&argc, argv);
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
