// Tests for the StreamPipeline: lifecycle, backpressure accounting,
// snapshot consistency, metrics wiring (the router operator included),
// and shard-count invariance.

#include "stream/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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

/// Pushes `records` one by one (push 1), whole (push 0) or in pushes of
/// `push` records.
void push_in(StreamPipeline& pipeline, std::vector<StreamRecord> records,
             std::size_t push) {
  if (push == 1) {
    for (StreamRecord& r : records) pipeline.push(std::move(r));
  } else if (push == 0) {
    pipeline.push_batch(std::move(records));
  } else {
    for (std::size_t i = 0; i < records.size(); i += push) {
      const std::size_t last = std::min(records.size(), i + push);
      const auto begin = records.begin() + static_cast<std::ptrdiff_t>(i);
      const auto end = records.begin() + static_cast<std::ptrdiff_t>(last);
      pipeline.push_batch(std::vector<StreamRecord>(
          std::make_move_iterator(begin), std::make_move_iterator(end)));
    }
  }
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
  // validate() refuses what the constructor would, before any thread
  // starts (the router thread builds the reorderer, which refuses a
  // negative lateness too late to report it).
  EXPECT_NO_THROW(validate(StreamConfig{}));
  StreamConfig negative_lateness;
  negative_lateness.max_lateness_seconds = -1;
  StreamConfig zero_queue;
  zero_queue.queue_capacity = 0;
  for (const StreamConfig& bad :
       {zero_shards, zero_window, negative_lateness, zero_queue}) {
    EXPECT_THROW(validate(bad), DomainError);
    EXPECT_THROW(StreamPipeline{bad}, DomainError);
  }
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
        push_in(pipeline, shuffle ? shuffled : ordered, push);
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

TEST(StreamPipeline, LatenessWiderThanTheBudgetCannotDeadlock) {
  // A budget of 8 records while the watermark holds back more than 8: a
  // batch that holds a held-back record leaves the budget, so the
  // shuffled replay finishes, pushed one by one or 64 at a time, with
  // the ordered replay's snapshot.
  constexpr std::int64_t kSkew = 600;
  const std::vector<StreamRecord> shuffled =
      sim::shuffled_replay(trace(), kSkew, 7);
  StreamConfig config = small_config(2);
  config.queue_capacity = 8;
  config.trace_sample_period = 0;

  WatermarkReorderer probe(2 * kSkew);
  std::size_t most_held = 0;
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    probe.push(shuffled[i], i, [](WatermarkReorderer::Ref) {});
    most_held = std::max(most_held, probe.buffered());
  }
  ASSERT_GT(most_held, config.queue_capacity);

  const std::uint64_t want = digest_of(run_all(config).to_json());
  config.max_lateness_seconds = 2 * kSkew;
  for (const std::size_t push : {std::size_t{1}, std::size_t{64}}) {
    StreamPipeline pipeline(config);
    push_in(pipeline, shuffled, push);
    pipeline.finish();
    const StreamSnapshot snap = pipeline.snapshot();
    EXPECT_EQ(snap.records_late, 0u);
    EXPECT_EQ(snap.records_processed, shuffled.size());
    EXPECT_EQ(digest_of(snap.to_json()), want) << "pushes of " << push;
  }
}

TEST(StreamPipeline, LaggingShardHoldsProducersWithinTheBudget) {
  // Every batch sends one row to shard 1, which is paused, and seven to
  // shard 0. A queued row keeps its whole batch alive, so each batch
  // counts against the budget until shard 1 applies its row: producers
  // stop once the live batches fill the budget, however few rows wait
  // at shard 1, and the ingest occupancy gauge reports the live records
  // while the ring itself is empty.
  constexpr std::size_t kBatch = 8;
  StreamConfig config = small_config(2);
  config.twin = "lagging_shard";
  config.queue_capacity = 64;
  config.trace_sample_period = 0;
  config.watchdog_grace_ms = 0;
  const std::vector<obs::MetricLabel> labels = {{"twin", config.twin}};
  obs::Counter& applied0 =
      obs::metrics().counter("stream.shard0.processed", labels);
  obs::Counter& applied1 =
      obs::metrics().counter("stream.shard1.processed", labels);
  obs::Gauge& occupancy =
      obs::metrics().gauge("stream.ingest.occupancy", labels);

  std::vector<StreamRecord> to_shard[2];
  for (StreamRecord& r : sim::build_replay(trace()))
    to_shard[shard_of(r, 2)].push_back(std::move(r));
  std::vector<std::vector<StreamRecord>> batches;
  for (std::size_t b = 0; b < 40; ++b) {
    std::vector<StreamRecord> batch;
    for (std::size_t i = 0; i + 1 < kBatch; ++i)
      batch.push_back(to_shard[0].at((kBatch - 1) * b + i));
    batch.push_back(to_shard[1].at(b));
    batches.push_back(std::move(batch));
  }
  const std::size_t total = batches.size() * kBatch;

  StreamPipeline pipeline(config);
  pipeline.pause_shard_for_test(1, true);
  std::thread producer([&] {
    for (auto& batch : batches) pipeline.push_batch(std::move(batch));
  });
  // Shard 1 may apply one slice before its pause takes hold; each row it
  // applied freed its batch once shard 0 had applied the other seven.
  auto live = [&](std::uint64_t in) { return in - kBatch * applied1.value(); };
  auto settled = [&] {
    const std::uint64_t in = pipeline.snapshot().records_in;
    return applied0.value() == (kBatch - 1) * (in / kBatch) &&
           live(in) + kBatch > config.queue_capacity;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!settled() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Time for a producer the budget failed to hold back to push more.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(settled());
  const StreamSnapshot held = pipeline.snapshot();
  EXPECT_LE(live(held.records_in), config.queue_capacity);
  EXPECT_LT(held.records_in, total);
  EXPECT_EQ(occupancy.value(), static_cast<double>(live(held.records_in)));
  // One row of each live batch waits at shard 1; the ring is empty.
  EXPECT_EQ(held.queue_depth, held.records_in / kBatch - applied1.value());

  pipeline.pause_shard_for_test(1, false);
  producer.join();
  pipeline.finish();
  const StreamSnapshot done = pipeline.snapshot();
  EXPECT_EQ(done.records_processed, total);
  EXPECT_EQ(done.queue_depth, 0u);
  EXPECT_EQ(occupancy.value(), 0.0);
}

TEST(StreamPipeline, BudgetSmallerThanTheShardCountRuns) {
  // A budget of 4 records across 4 shards: each shard queue may hold
  // the whole budget, so the replay runs through, only slowly.
  StreamConfig config = small_config(4);
  config.queue_capacity = 4;
  config.trace_sample_period = 0;
  StreamConfig wide = config;
  wide.queue_capacity = 512;
  EXPECT_EQ(digest_of(run_all(config).to_json()),
            digest_of(run_all(wide).to_json()));
}

StreamRecord ras_at(util::UnixSeconds t, std::uint64_t seq) {
  raslog::RasEvent e;
  e.record_id = seq;
  e.timestamp = t;
  return {t, seq, e};
}

TEST(StreamPipeline, HeldBackRecordPinsOnlyItsOwnBatch) {
  // The first batch's one record is held back by a 3600 s watermark.
  // Each of the three batches after it holds one record already behind
  // the watermark, released (late) as it arrives, so those batches are
  // left to the shard slices: the held record pins its own batch only.
  StreamConfig config = small_config(2);
  config.twin = "pin";
  config.max_lateness_seconds = 3600;
  config.trace_sample_period = 0;
  obs::Gauge& pinned = obs::metrics().gauge("stream.reorder.pinned_batches",
                                            {{"twin", "pin"}});
  obs::Gauge& buffered =
      obs::metrics().gauge("stream.reorder.buffered", {{"twin", "pin"}});
  StreamPipeline pipeline(config);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const util::UnixSeconds time =
        seq == 0 ? 100000 : 1000 * static_cast<util::UnixSeconds>(seq);
    std::vector<StreamRecord> batch;
    batch.push_back(ras_at(time, seq));
    ASSERT_EQ(pipeline.push_batch(std::move(batch)), 1u);
  }
  // The router sets its gauges before it hands a batch's records to the
  // shards, so once the three late records are applied the gauges
  // describe the state after the fourth batch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pipeline.snapshot().records_processed < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const StreamSnapshot live = pipeline.snapshot();
  ASSERT_EQ(live.records_processed, 3u);
  EXPECT_EQ(live.records_late, 3u);
  EXPECT_EQ(buffered.value(), 1.0);
  EXPECT_EQ(pinned.value(), 1.0);

  pipeline.finish();
  EXPECT_EQ(pipeline.snapshot().records_processed, 4u);
  EXPECT_EQ(pinned.value(), 0.0);
}

}  // namespace
}  // namespace failmine::stream
