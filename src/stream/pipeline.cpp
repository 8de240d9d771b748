#include "stream/pipeline.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdio>

#include "core/mtti.hpp"
#include "obs/causal.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace failmine::stream {

namespace {

/// Names the calling thread (<=15 chars + NUL, the pthread limit) and
/// registers it with the sampling profiler, so folded stacks from
/// obs::profile carry pipeline-role identity ("fm.shard3;...").
void name_and_attach(const char* name) {
  (void)::pthread_setname_np(::pthread_self(), name);
  obs::profile_attach_this_thread();
}

/// Microsecond bounds for the per-shard batch-apply latency histograms.
std::vector<double> stage_latency_bounds() {
  return {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000};
}

/// Causal-trace stage indices, matching the stage list the pipeline
/// constructor hands to obs::causal_tracer().configure(). Stage 0
/// (emit) is stamped by maybe_begin itself.
enum CausalStage : std::size_t {
  kCausalEmit = 0,     ///< record accepted into the ingest ring
  kCausalRing = 1,     ///< router popped it off the ring
  kCausalReorder = 2,  ///< watermark reorderer released it in order
  kCausalShard = 3,    ///< shard worker dequeued it
  kCausalApply = 4,    ///< incremental aggregates applied it
};

std::vector<std::string> causal_stage_names() {
  return {"emit", "ring", "reorder", "shard", "apply"};
}

StreamConfig validated(StreamConfig config) {
  validate(config);
  return config;
}

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

void validate(const StreamConfig& config) {
  auto require = [](bool ok, const char* message) {
    if (!ok) throw failmine::DomainError(message);
  };
  require(config.shard_count > 0, "StreamConfig.shard_count must be positive");
  require(config.queue_capacity > 0,
          "StreamConfig.queue_capacity must be positive");
  require(config.dispatch_batch > 0,
          "StreamConfig.dispatch_batch must be positive");
  require(config.max_lateness_seconds >= 0,
          "StreamConfig.max_lateness_seconds must be non-negative");
  require(config.window_bucket_seconds > 0 && config.window_buckets > 0,
          "StreamConfig rolling window must be non-empty");
  require(config.watchdog_grace_ms <= 0 || config.watchdog_poll_ms > 0,
          "StreamConfig.watchdog_poll_ms must be positive");
}

StreamPipeline::RouterState::RouterState(const StreamConfig& config)
    : filter(config.filter),
      job_window(config.window_bucket_seconds, config.window_buckets),
      severity_window(config.window_bucket_seconds, config.window_buckets) {}

StreamPipeline::Shard::Shard(const StreamConfig& config, std::size_t index,
                             const std::vector<obs::MetricLabel>& labels)
    : queue(config.queue_capacity, BackpressurePolicy::kBlock),
      aggregates(config.machine, config.quantile_epsilon,
                 config.heavy_hitter_capacity) {
  const std::string prefix = "stream.shard" + std::to_string(index);
  apply_us = &obs::metrics().histogram(prefix + ".apply_us", labels,
                                       stage_latency_bounds());
  processed_counter = &obs::metrics().counter(prefix + ".processed", labels);
  queue.set_occupancy_gauge(
      &obs::metrics().gauge(prefix + ".occupancy", labels));
}

StreamPipeline::StreamPipeline(StreamConfig config)
    : config_(validated(std::move(config))),
      ingest_(config_.queue_capacity, config_.policy),
      slice_rows_(std::min(config_.dispatch_batch, config_.queue_capacity)),
      router_(config_) {
  if (!config_.twin.empty()) labels_.push_back({"twin", config_.twin});

  // Resolve every pipeline-wide instrument once, twin label applied.
  // Doing it up front also means time-series scrapes (obs::tsdb) see
  // them from the very first sample — the reconciliation guarantee for
  // rate(stream.records_processed) needs a zero baseline captured
  // before any batch lands.
  obs::MetricsRegistry& reg = obs::metrics();
  inst_.records_in = &reg.counter("stream.records_in", labels_);
  inst_.records_dropped = &reg.counter("stream.records_dropped", labels_);
  inst_.records_late = &reg.counter("stream.records_late", labels_);
  inst_.records_processed = &reg.counter("stream.records_processed", labels_);
  inst_.window_failure_rate =
      &reg.gauge("stream.window.failure_rate", labels_);
  inst_.window_fatal = &reg.gauge("stream.window.fatal", labels_);
  inst_.queue_depth = &reg.gauge("stream.queue_depth", labels_);
  inst_.watermark_lag = &reg.gauge("stream.watermark_lag_s", labels_);
  inst_.reorder_buffered = &reg.gauge("stream.reorder.buffered", labels_);
  inst_.reorder_pinned =
      &reg.gauge("stream.reorder.pinned_batches", labels_);
  inst_.stalled_shards = &reg.gauge("stream.stalled_shards", labels_);
  inst_.shard_stalls = &reg.counter("stream.shard_stalls", labels_);
  inst_.interruptions_opened =
      &reg.counter("stream.interruptions_opened", labels_);
  inst_.router_batch_us = &reg.histogram(
      "stream.router.batch_us", labels_,
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000});
  ingest_.set_occupancy_gauge(&reg.gauge("stream.ingest.occupancy", labels_));

  // (Re)arm the process-wide causal tracer before any thread can stamp:
  // thread creation below publishes the tracer's internal pointers. A
  // fleet configures it once itself and clears configure_tracer on its
  // member pipelines.
  if (config_.configure_tracer)
    obs::causal_tracer().configure(causal_stage_names(),
                                   config_.trace_sample_period);

  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>(config_, i, labels_));
  for (std::size_t i = 0; i < shards_.size(); ++i)
    shards_[i]->worker = std::thread(
        [this, s = shards_[i].get(), i] { worker_loop(*s, i); });
  router_thread_ = std::thread([this] { router_loop(); });
  if (config_.watchdog_grace_ms > 0)
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });

  obs::logger().info(
      "stream.pipeline_started",
      {obs::Field("shards", static_cast<std::int64_t>(config_.shard_count)),
       obs::Field("queue_capacity",
                  static_cast<std::int64_t>(config_.queue_capacity)),
       obs::Field("policy", backpressure_policy_name(config_.policy)),
       obs::Field("max_lateness_s", config_.max_lateness_seconds)});
}

StreamPipeline::~StreamPipeline() { finish(); }

bool StreamPipeline::push(StreamRecord record) {
  // Sampling keys on the emitter-assigned sequence: stable across runs,
  // unique across sources. Not sampled (the common case) costs one hash
  // and one branch.
  record.trace = obs::causal_tracer().maybe_begin(record.sequence);
  const bool accepted = ingest_.push(std::move(record));
  if (accepted)
    inst_.records_in->add();
  else
    inst_.records_dropped->add();
  return accepted;
}

std::size_t StreamPipeline::push_batch(std::vector<StreamRecord>&& records) {
  const std::size_t offered = records.size();
  for (StreamRecord& record : records)
    record.trace = obs::causal_tracer().maybe_begin(record.sequence);
  const std::size_t accepted = ingest_.push_batch(std::move(records));
  inst_.records_in->add(accepted);
  inst_.records_dropped->add(offered - accepted);
  return accepted;
}

void StreamPipeline::route(const StreamRecord& record,
                           const std::shared_ptr<const RecordBatch>& batch,
                           Routed& routed) {
  // Caller holds router_mutex_: the record arrives here in watermark
  // order, so the order-sensitive operators see the sorted stream.
  bool opened_interruption = false;
  switch (record.source()) {
    case RecordSource::kJob: {
      const auto& job = std::get<joblog::JobRecord>(record.payload);
      router_.window.add_job(job.submit_time, job.end_time);
      router_.job_window.add(record.time, 0);
      if (job.failed()) router_.job_window.add(record.time, 1);
      break;
    }
    case RecordSource::kRas: {
      const auto& event = std::get<raslog::RasEvent>(record.payload);
      router_.window.add_event(event.timestamp);
      router_.severity_window.add(record.time,
                                  static_cast<std::size_t>(event.severity));
      opened_interruption = router_.filter.add(event);
      if (opened_interruption) inst_.interruptions_opened->add();
      break;
    }
    case RecordSource::kTask:
    case RecordSource::kIo:
      break;  // nothing order-sensitive; the batch window ignores these too
  }
  if (config_.router_operator)
    config_.router_operator->observe(record, opened_interruption);
  if (record.trace != 0)
    obs::causal_tracer().stamp(record.trace, kCausalReorder);

  const std::size_t shard = shard_of(record, shards_.size());
  RowSlice& slice = routed.filling[shard];
  if (slice.rows.empty()) slice.rows.reserve(slice_rows_);
  slice.rows.push_back(&record);
  slice.keep(batch);
  if (slice.size() == slice_rows_) {
    routed.full.emplace_back(shard, std::move(slice));
    slice = RowSlice();
  }
}

void StreamPipeline::hand_off(Routed& routed) {
  // A slice holds at most a shard queue's capacity, so each push waits
  // only for that shard to apply what it has.
  for (auto& [shard, slice] : routed.full)
    shards_[shard]->queue.push_batch(std::move(slice));
  routed.full.clear();
  for (std::size_t shard = 0; shard < routed.filling.size(); ++shard) {
    RowSlice& slice = routed.filling[shard];
    if (slice.size() == 0) continue;
    shards_[shard]->queue.push_batch(std::move(slice));
    slice = RowSlice();
  }
}

void StreamPipeline::router_loop() {
  name_and_attach("fm.router");
  WatermarkReorderer reorderer(config_.max_lateness_seconds);
  Routed routed;
  routed.filling.resize(shards_.size());

  // A popped batch keeps its space in the ingest ring until the last
  // slice to let go of it frees it, on a shard thread.
  const auto free_batch = [this](const RecordBatch* batch) {
    const std::size_t n = batch->size();
    delete batch;
    ingest_.release(n);
  };

  // Popped batches that hold records the reorderer has not released, by
  // slot; a reorderer reference packs (slot << 32 | row).
  struct PinnedBatch {
    std::shared_ptr<const RecordBatch> batch;
    std::size_t held = 0;
    bool released = false;  ///< its space went back to the ingest ring
  };
  std::vector<PinnedBatch> pins;
  std::vector<std::uint32_t> free_pins;
  std::vector<std::uint32_t> drained;  ///< pins whose last record left
  auto release = [&](WatermarkReorderer::Ref ref) {
    const auto slot = static_cast<std::uint32_t>(ref >> 32);
    PinnedBatch& pin = pins[slot];
    route((*pin.batch)[static_cast<std::uint32_t>(ref)], pin.batch, routed);
    if (--pin.held == 0) drained.push_back(slot);
  };
  // Drops the router's reference to each drained batch. The release
  // that drained it put a row of it in a slice not yet handed off, so
  // the batch outlives the router's reference. A batch that left the
  // budget while pinned counts against it again.
  auto unpin = [&] {
    for (const std::uint32_t slot : drained) {
      PinnedBatch& pin = pins[slot];
      if (pin.released) ingest_.reacquire(pin.batch->size());
      pin = PinnedBatch();
      free_pins.push_back(slot);
    }
    drained.clear();
    inst_.reorder_pinned->set(
        static_cast<double>(pins.size() - free_pins.size()));
  };

  for (;;) {
    RecordBatch arrivals;
    const std::size_t n = ingest_.pop_batch(
        arrivals, std::min<std::size_t>(ingest_.capacity(), UINT32_MAX));
    if (n == 0) break;  // closed and drained
    const auto batch_start = std::chrono::steady_clock::now();
    std::uint32_t slot = static_cast<std::uint32_t>(pins.size());
    if (free_pins.empty()) {
      pins.emplace_back();
    } else {
      slot = free_pins.back();
      free_pins.pop_back();
    }
    pins[slot] = {std::shared_ptr<const RecordBatch>(
                      new RecordBatch(std::move(arrivals)), free_batch),
                  n};
    {
      FAILMINE_TRACE_SPAN("stream.router.batch");
      std::lock_guard<std::mutex> lock(router_mutex_);
      const RecordBatch& batch = *pins[slot].batch;
      const WatermarkReorderer::Ref base = WatermarkReorderer::Ref{slot} << 32;
      for (std::size_t row = 0; row < n; ++row) {
        if (batch[row].trace != 0)
          obs::causal_tracer().stamp(batch[row].trace, kCausalRing);
        reorderer.push(batch[row], base | row, release);
      }
      router_.newest_seen = reorderer.newest_seen();
      router_.watermark = reorderer.watermark();
      router_.watermark_lag_seconds = reorderer.lag_seconds();
      inst_.records_late->add(reorderer.late_records() -
                                 router_.late_records);
      router_.late_records = reorderer.late_records();

      // Rolling-window health gauges: the E01 failure-rate and FATAL
      // pressure trends, refreshed per batch so the time-series store
      // captures them as they evolve instead of only at snapshot time.
      const auto jobs = router_.job_window.totals(router_.newest_seen);
      inst_.window_failure_rate->set(
          jobs[0] > 0
              ? static_cast<double>(jobs[1]) / static_cast<double>(jobs[0])
              : 0.0);
      inst_.window_fatal->set(static_cast<double>(
          router_.severity_window.totals(router_.newest_seen)[2]));
    }
    // A batch the reorderer still holds records of leaves the budget
    // until it lets go of the last, so held-back records never stall
    // the producers whose records would release them.
    if (pins[slot].held > 0) {
      pins[slot].released = true;
      ingest_.release(n);
    }
    unpin();
    inst_.watermark_lag->set(static_cast<double>(reorderer.lag_seconds()));
    inst_.reorder_buffered->set(static_cast<double>(reorderer.buffered()));
    // The router's work on the batch; waiting on a full shard queue is
    // not work.
    inst_.router_batch_us->observe(elapsed_us(batch_start));
    hand_off(routed);
    inst_.queue_depth->set(static_cast<double>(queue_depth()));
  }

  {
    std::lock_guard<std::mutex> lock(router_mutex_);
    reorderer.flush(release);
    router_.watermark = reorderer.newest_seen();
    router_.watermark_lag_seconds = 0;
    if (config_.router_operator) config_.router_operator->finish();
  }
  unpin();
  hand_off(routed);
  for (auto& shard : shards_) shard->queue.close();
  inst_.watermark_lag->set(0.0);
  inst_.reorder_buffered->set(0.0);
}

void StreamPipeline::worker_loop(Shard& shard, std::size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "fm.shard%zu", index);
  name_and_attach(name);
  for (;;) {
    {
      std::unique_lock<std::mutex> pause(shard.pause_mutex);
      shard.pause_cv.wait(pause, [&] { return !shard.paused; });
    }
    RowSlice slice;
    const std::size_t n = shard.queue.pop_batch(slice, config_.dispatch_batch);
    if (n == 0) break;
    const auto apply_start = std::chrono::steady_clock::now();
    {
      FAILMINE_TRACE_SPAN("stream.shard.apply");
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const StreamRecord* record : slice.rows) {
        if (record->trace != 0)
          obs::causal_tracer().stamp(record->trace, kCausalShard);
        shard.aggregates.apply(*record);
        if (record->trace != 0)
          obs::causal_tracer().stamp(record->trace, kCausalApply);
      }
    }
    shard.processed.fetch_add(n, std::memory_order_relaxed);
    shard.apply_us->observe(elapsed_us(apply_start));
    shard.processed_counter->add(n);
    inst_.records_processed->add(n);
    // The last slice to let go of a batch frees it.
    slice = RowSlice();
    shard.queue.release(n);
  }
}

std::size_t StreamPipeline::queue_depth() const {
  std::size_t depth = ingest_.size();
  for (const auto& shard : shards_) depth += shard->queue.occupied();
  return depth;
}

void StreamPipeline::pause_shard_for_test(std::size_t shard, bool paused) {
  Shard& s = *shards_.at(shard);
  {
    std::lock_guard<std::mutex> lock(s.pause_mutex);
    s.paused = paused;
  }
  s.pause_cv.notify_all();
}

void StreamPipeline::watchdog_loop() {
  name_and_attach("fm.watchdog");
  const auto grace = std::chrono::milliseconds(config_.watchdog_grace_ms);
  const auto poll = std::chrono::milliseconds(config_.watchdog_poll_ms);
  std::vector<std::uint64_t> last_processed(shards_.size(), 0);
  std::vector<std::chrono::steady_clock::time_point> stagnant_since(
      shards_.size(), std::chrono::steady_clock::now());
  std::vector<bool> stalled(shards_.size(), false);

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mutex_);
      if (watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; }))
        break;
    }
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t processed =
          shard.processed.load(std::memory_order_relaxed);
      const std::size_t backlog = shard.queue.size();
      if (processed != last_processed[i] || backlog == 0) {
        // Progress (or nothing owed): the shard is live.
        last_processed[i] = processed;
        stagnant_since[i] = now;
        if (stalled[i]) {
          stalled[i] = false;
          stalled_shards_.fetch_sub(1, std::memory_order_relaxed);
          inst_.stalled_shards->set(
              static_cast<double>(stalled_shards_.load()));
          obs::logger().info(
              "stream.shard_recovered",
              {obs::Field("shard", static_cast<std::uint64_t>(i))});
        }
      } else if (!stalled[i] && now - stagnant_since[i] >= grace) {
        stalled[i] = true;
        stalled_shards_.fetch_add(1, std::memory_order_relaxed);
        inst_.stalled_shards->set(static_cast<double>(stalled_shards_.load()));
        inst_.shard_stalls->add();
        obs::logger().warn(
            "stream.shard_stalled",
            {obs::Field("shard", static_cast<std::uint64_t>(i)),
             obs::Field("queued", static_cast<std::uint64_t>(backlog)),
             obs::Field("grace_ms", config_.watchdog_grace_ms)});
      }
    }
  }
}

void StreamPipeline::finish() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (finished_) return;
  FAILMINE_TRACE_SPAN("stream.finish");
  ingest_.close();
  if (router_thread_.joinable()) router_thread_.join();
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  stalled_shards_.store(0, std::memory_order_relaxed);
  finished_ = true;
  inst_.queue_depth->set(0.0);
  obs::logger().info(
      "stream.pipeline_finished",
      {obs::Field("records_in",
                  static_cast<std::int64_t>(ingest_.pushed())),
       obs::Field("records_dropped",
                  static_cast<std::int64_t>(ingest_.dropped()))});
}

StreamSnapshot StreamPipeline::snapshot() const {
  FAILMINE_TRACE_SPAN("stream.snapshot");
  StreamSnapshot snap;

  ShardAggregates merged(config_.machine, config_.quantile_epsilon,
                         config_.heavy_hitter_capacity);
  std::uint64_t processed = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    merged.merge(shard->aggregates);
    processed += shard->processed;
  }

  snap.records_in = ingest_.pushed();
  snap.records_dropped = ingest_.dropped();
  snap.records_processed = processed;
  snap.records_by_source = merged.records_by_source;
  snap.queue_depth = queue_depth();
  {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    snap.finished = finished_;
  }

  {
    std::lock_guard<std::mutex> lock(router_mutex_);
    snap.records_late = router_.late_records;
    snap.watermark = router_.watermark;
    snap.watermark_lag_seconds = router_.watermark_lag_seconds;
    if (!router_.window.empty()) {
      snap.window_begin = router_.window.begin;
      snap.window_end = router_.window.end;
    }

    const auto jobs = router_.job_window.totals(router_.newest_seen);
    snap.window_seconds = router_.job_window.window_seconds();
    snap.window_jobs = jobs[0];
    snap.window_failures = jobs[1];
    snap.window_failure_rate =
        jobs[0] > 0 ? static_cast<double>(jobs[1]) / static_cast<double>(jobs[0])
                    : 0.0;
    snap.window_severity = router_.severity_window.totals(router_.newest_seen);

    snap.fatal_input_events = router_.filter.input_events();
    snap.interruptions = router_.filter.clusters().size();
    if (!router_.window.empty() && snap.window_end > snap.window_begin)
      snap.mtti = core::compute_mtti(router_.filter.clusters(),
                                     snap.window_begin, snap.window_end);
  }
  snap.span_days = static_cast<double>(snap.window_end - snap.window_begin) /
                   static_cast<double>(util::kSecondsPerDay);

  snap.exit_breakdown = core::exit_breakdown_of(merged.exits);
  for (const core::ExitBreakdownRow& row : snap.exit_breakdown.rows)
    snap.total_core_hours += row.core_hours;
  snap.severity_totals = merged.severity_totals;
  snap.task_failures = merged.task_failures;
  snap.io_bytes_total = merged.io_bytes_total;

  snap.runtime_samples = merged.runtime_sketch.count();
  snap.quantile_epsilon = merged.runtime_sketch.epsilon();
  if (!merged.runtime_sketch.empty()) {
    snap.runtime_p50 = merged.runtime_sketch.quantile(0.50);
    snap.runtime_p90 = merged.runtime_sketch.quantile(0.90);
    snap.runtime_p99 = merged.runtime_sketch.quantile(0.99);
  }

  snap.heavy_hitter_error_bound =
      std::max({merged.users_by_failures.error_bound(),
                merged.projects_by_failures.error_bound(),
                merged.boards_by_events.error_bound()});
  auto numeric_top = [](const SpaceSavingSketch& sketch, const char* prefix) {
    std::vector<TopEntry> out;
    for (const auto& e : sketch.top(10))
      out.push_back({e.key, prefix + std::to_string(e.key), e.count, e.error});
    return out;
  };
  snap.top_users_by_failures = numeric_top(merged.users_by_failures, "user-");
  snap.top_projects_by_failures =
      numeric_top(merged.projects_by_failures, "project-");
  for (const auto& e : merged.boards_by_events.top(10))
    snap.top_boards_by_events.push_back(
        {e.key, board_key_name(e.key), e.count, e.error});

  if (config_.router_operator)
    snap.sections.emplace_back(config_.router_operator->section_name(),
                               operator_snapshot_json());

  obs::CausalTracer& tracer = obs::causal_tracer();
  snap.trace_sample_period = tracer.sample_period();
  if (tracer.enabled()) {
    snap.traces_sampled = tracer.sampled();
    snap.causal_stages = tracer.stage_stats();
    obs::Histogram& e2e = obs::metrics().histogram("causal.e2e_us");
    obs::HistogramSample e2e_sample;
    e2e_sample.upper_bounds = e2e.upper_bounds();
    e2e_sample.buckets = e2e.bucket_counts();
    snap.causal_e2e_p50_us = obs::histogram_quantile(e2e_sample, 0.50);
    snap.causal_e2e_p99_us = obs::histogram_quantile(e2e_sample, 0.99);
  }

  return snap;
}

SpaceSavingSketch StreamPipeline::users_by_failures_sketch() const {
  SpaceSavingSketch merged(config_.heavy_hitter_capacity);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    merged.merge(shard->aggregates.users_by_failures);
  }
  return merged;
}

std::string StreamPipeline::operator_snapshot_json() const {
  if (!config_.router_operator) return std::string();
  std::lock_guard<std::mutex> lock(router_mutex_);
  return config_.router_operator->snapshot_json();
}

}  // namespace failmine::stream
