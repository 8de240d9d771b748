// Tests for the StreamPipeline: lifecycle, backpressure accounting,
// snapshot consistency, metrics wiring (the router operator included),
// and shard-count invariance.

#include "stream/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "predict/operator.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace failmine::stream {
namespace {

const sim::SimResult& trace() {
  static const sim::SimResult result = [] {
    sim::SimConfig config = sim::SimConfig::test_scale();
    config.scale = 0.004;
    return sim::simulate(config);
  }();
  return result;
}

StreamConfig small_config(std::size_t shards) {
  StreamConfig config;
  config.shard_count = shards;
  config.queue_capacity = 512;
  config.max_lateness_seconds = 0;
  return config;
}

StreamSnapshot run_all(StreamConfig config) {
  StreamPipeline pipeline(std::move(config));
  pipeline.push_batch(sim::build_replay(trace()));
  pipeline.finish();
  return pipeline.snapshot();
}

TEST(StreamPipeline, RejectsBadConfig) {
  StreamConfig zero_shards;
  zero_shards.shard_count = 0;
  EXPECT_THROW(StreamPipeline{zero_shards}, DomainError);
  StreamConfig zero_window;
  zero_window.window_buckets = 0;
  EXPECT_THROW(StreamPipeline{zero_window}, DomainError);
}

TEST(StreamPipeline, ProcessesEveryAcceptedRecord) {
  const auto snap = run_all(small_config(2));
  const std::size_t expected = trace().job_log.size() +
                               trace().task_log.size() +
                               trace().ras_log.size() + trace().io_log.size();
  EXPECT_TRUE(snap.finished);
  EXPECT_EQ(snap.records_in, expected);
  EXPECT_EQ(snap.records_processed, expected);
  EXPECT_EQ(snap.records_dropped, 0u);
  EXPECT_EQ(snap.records_late, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.records_by_source[0], trace().job_log.size());
  EXPECT_EQ(snap.records_by_source[1], trace().task_log.size());
  EXPECT_EQ(snap.records_by_source[2], trace().ras_log.size());
  EXPECT_EQ(snap.records_by_source[3], trace().io_log.size());
}

TEST(StreamPipeline, PushAfterFinishIsRejected) {
  StreamPipeline pipeline(small_config(1));
  pipeline.finish();
  StreamRecord r;
  r.payload = joblog::JobRecord{};
  EXPECT_FALSE(pipeline.push(std::move(r)));
  EXPECT_EQ(pipeline.snapshot().records_dropped, 1u);
}

TEST(StreamPipeline, DropPolicySheddingIsAccounted) {
  // A tiny ring under kDropNewest with a flood of pushes: whatever the
  // router keeps up with, accepted + dropped must equal offered, and the
  // pipeline must finish cleanly.
  StreamConfig config = small_config(1);
  config.queue_capacity = 8;
  config.policy = BackpressurePolicy::kDropNewest;
  StreamPipeline pipeline(config);

  auto records = sim::build_replay(trace());
  const std::size_t offered = records.size();
  std::size_t accepted = 0;
  for (auto& r : records)
    if (pipeline.push(std::move(r))) ++accepted;
  pipeline.finish();

  const auto snap = pipeline.snapshot();
  EXPECT_EQ(snap.records_in, accepted);
  EXPECT_EQ(snap.records_in + snap.records_dropped, offered);
  EXPECT_EQ(snap.records_processed, accepted);
}

TEST(StreamPipeline, LiveSnapshotIsConsistentUnderConcurrency) {
  // Snapshots taken while producers are pushing must be internally
  // consistent prefixes: processed <= in, and totals that can never
  // exceed their inputs must not.
  StreamConfig config = small_config(2);
  StreamPipeline pipeline(config);
  auto records = sim::build_replay(trace());

  std::thread producer([&] {
    std::vector<StreamRecord> chunk;
    for (std::size_t i = 0; i < records.size();) {
      const std::size_t n = std::min<std::size_t>(64, records.size() - i);
      chunk.assign(std::make_move_iterator(records.begin() + i),
                   std::make_move_iterator(records.begin() + i + n));
      pipeline.push_batch(std::move(chunk));
      i += n;
    }
  });
  for (int i = 0; i < 50; ++i) {
    const auto snap = pipeline.snapshot();
    EXPECT_LE(snap.records_processed, snap.records_in);
    EXPECT_LE(snap.exit_breakdown.total_failures,
              snap.exit_breakdown.total_jobs);
    EXPECT_LE(snap.window_failures, snap.window_jobs);
    EXPECT_EQ(snap.runtime_samples, snap.exit_breakdown.total_jobs);
  }
  producer.join();
  pipeline.finish();
  EXPECT_EQ(pipeline.snapshot().records_dropped, 0u);
}

TEST(StreamPipeline, ShardCountDoesNotChangeExactResults) {
  const auto one = run_all(small_config(1));
  const auto four = run_all(small_config(4));
  EXPECT_EQ(one.exit_breakdown.total_jobs, four.exit_breakdown.total_jobs);
  EXPECT_EQ(one.exit_breakdown.total_failures,
            four.exit_breakdown.total_failures);
  EXPECT_EQ(one.interruptions, four.interruptions);
  EXPECT_EQ(one.task_failures, four.task_failures);
  EXPECT_EQ(one.io_bytes_total, four.io_bytes_total);
  EXPECT_EQ(one.severity_totals, four.severity_totals);
  EXPECT_EQ(one.window_jobs, four.window_jobs);
  EXPECT_EQ(one.window_severity, four.window_severity);
  EXPECT_NEAR(one.total_core_hours, four.total_core_hours,
              1e-9 * one.total_core_hours);
}

TEST(StreamPipeline, FeedsObsMetrics) {
  auto& registry = obs::metrics();
  const std::uint64_t in_before = registry.counter_value("stream.records_in");
  const auto snap = run_all(small_config(2));
  EXPECT_EQ(registry.counter_value("stream.records_in") - in_before,
            snap.records_in);
  // The gauges exist and settle at drained values after finish().
  EXPECT_EQ(registry.gauge("stream.queue_depth").value(), 0.0);
  EXPECT_EQ(registry.gauge("stream.watermark_lag_s").value(), 0.0);
}

TEST(StreamPipeline, InterruptionsOpenedCountsEachInterruptionOncePerTwin) {
  // With the predictor attached, the router's similarity filter is the
  // only one: its counter, under the twin's label, reads the snapshot's
  // interruption count, and so does the predictor's.
  auto& registry = obs::metrics();
  obs::Counter& opened =
      registry.counter("stream.interruptions_opened", {{"twin", "tX"}});
  obs::Counter& predicted = registry.counter("predict.interruptions");
  const std::uint64_t opened_before = opened.value();
  const std::uint64_t predicted_before = predicted.value();

  auto op =
      std::make_shared<predict::PredictOperator>(predict::PredictConfig{});
  StreamConfig config = small_config(2);
  config.twin = "tX";
  config.router_operator = op;
  const auto snap = run_all(config);

  ASSERT_GT(snap.interruptions, 0u);
  EXPECT_EQ(opened.value() - opened_before, snap.interruptions);
  EXPECT_EQ(predicted.value() - predicted_before, snap.interruptions);
  EXPECT_EQ(op->snapshot().interruptions, snap.interruptions);
}

TEST(StreamPipeline, SnapshotJsonIsWellFormedEnough) {
  const auto snap = run_all(small_config(2));
  const std::string json = snap.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_EQ(json.back(), '\n');
  for (const char* key :
       {"\"ingest\"", "\"records_in\"", "\"exit_breakdown\"",
        "\"rolling_window\"", "\"interruptions\"", "\"runtime_quantiles\"",
        "\"heavy_hitters\"", "\"watermark_lag_s\"", "\"finished\":true"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // Balanced braces/brackets (emitter writes no strings containing them).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

/// FNV-1a over the snapshot's JSON text.
std::uint64_t digest_of(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(StreamPipeline, SnapshotJsonDigestsArePinned) {
  // The whole final snapshot — heavy hitters, quantiles, f64 core-hours,
  // MTTI — at 1, 2 and 4 shards, pinned to the digests of the pipeline
  // that moved records one by one into per-shard vectors. Neither the
  // replay order (a skew the watermark fully restores) nor how the
  // replay is cut into pushes may change it. A 512-record ring makes
  // 700-record pushes and the whole replay enter in pieces.
  constexpr std::int64_t kSkew = 600;
  const std::map<std::size_t, std::uint64_t> pinned = {
      {1, 0x2167e061748dc0f1ULL},
      {2, 0x92b72939a7c3fb62ULL},
      {4, 0x023219c26a7fb1e0ULL},
  };
  const std::vector<StreamRecord> ordered = sim::build_replay(trace());
  const std::vector<StreamRecord> shuffled =
      sim::shuffled_replay(trace(), kSkew, 7);
  for (const auto& [shards, want] : pinned) {
    for (const bool shuffle : {false, true}) {
      for (const std::size_t push : {std::size_t{1}, std::size_t{64},
                                     std::size_t{700}, std::size_t{0}}) {
        StreamConfig config = small_config(shards);
        config.trace_sample_period = 0;
        config.max_lateness_seconds = shuffle ? 2 * kSkew : 0;
        StreamPipeline pipeline(config);
        std::vector<StreamRecord> records = shuffle ? shuffled : ordered;
        if (push == 1) {
          for (StreamRecord& r : records) pipeline.push(std::move(r));
        } else if (push == 0) {
          pipeline.push_batch(std::move(records));
        } else {
          for (std::size_t i = 0; i < records.size(); i += push) {
            const auto begin = records.begin() + static_cast<std::ptrdiff_t>(i);
            const auto end = records.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(records.size(), i + push));
            pipeline.push_batch(std::vector<StreamRecord>(
                std::make_move_iterator(begin), std::make_move_iterator(end)));
          }
        }
        pipeline.finish();
        const StreamSnapshot snap = pipeline.snapshot();
        EXPECT_EQ(snap.records_late, 0u);
        const std::uint64_t got = digest_of(snap.to_json());
        EXPECT_EQ(got, want) << std::hex << "0x" << got << std::dec
                             << " at " << shards << " shards, "
                             << (shuffle ? "shuffled" : "ordered")
                             << ", pushes of " << push;
      }
    }
  }
}

}  // namespace
}  // namespace failmine::stream
