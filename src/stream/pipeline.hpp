// failmine/stream/pipeline.hpp
//
// The streaming pipeline: bounded ingestion, watermark reordering, and
// sharded incremental analytics.
//
//   producers --> ingest ring --> router thread --> shard queues --> workers
//                 (bounded,       (watermark         (bounded,       (merge-
//                  backpressure;   reorder +          block; row      able
//                  whole record    order-sensitive    slices of a     aggre-
//                  batches)        operators)         shared batch)   gates)
//
// The router is the single consumer of the ingest ring. It restores
// bounded out-of-order arrivals to event-time order, runs the
// order-sensitive operators (the batch E07 filter, core::SimilarityFilter,
// for streaming MTTI; rolling windows) on the ordered stream, and routes
// each record to a shard worker by stable key (user for jobs, owning job
// for tasks/IO, location for RAS) for the mergeable per-record work:
// exit-class accounting, the runtime quantile sketch and the
// heavy-hitter sketches.
//
// Records move as batches, and once pushed a record never moves again.
// The router pops a producer's batch whole and keeps it as it is,
// immutable and shared (std::shared_ptr<const>). It hands the reorderer
// a reference to each record (its batch and row) and routes each record
// the reorderer releases where it lies: it reads the record by const
// reference and appends a pointer to it to its shard's slice, which
// also keeps the record's batch alive. With lateness 0 the reorderer
// releases every record as it arrives. Each shard receives slices of at
// most `dispatch_batch` rows and applies them in row order — the routed
// order, so every aggregate is the same as when records were moved one
// by one. A batch that still holds a record the reorderer has held back
// stays pinned by the router (the `stream.reorder.pinned_batches`
// gauge); a batch without one is kept alive by slices alone. The router
// never frees a batch: it drops its own reference only while a slice it
// has yet to hand off holds one, so the last slice to let go of a batch
// frees it, on the shard thread that applied it last.
//
// `queue_capacity` is the budget of records between push and apply, and
// it counts whole batches, since a queued row keeps its whole batch
// alive. A pushed batch counts against the ingest ring's capacity — the
// budget — from its push until the last slice to let go of it frees it:
// queued, routed, and while any of its rows waits at a shard. Producers
// push only what fits, so a lagging shard holds back the producers
// before the batches it keeps alive outgrow the budget. A batch that
// still holds a record the reorderer has held back leaves the budget
// until the reorderer lets go of its last one; it then counts again
// (which may take the count past the budget for a while: producers wait
// until the shards free enough). So a lateness window wider than the
// budget cannot deadlock the pipeline; what held-back records cost is
// the batches they pin. Each shard queue also holds at most
// `queue_capacity` rows, the slice its worker is applying included.
//
// snapshot() is safe to call at any time from any thread; it merges the
// per-shard partials and the router state under their locks, so every
// snapshot is a consistent prefix view. After finish() returns, the
// snapshot is exact over the full input and (under the blocking
// backpressure policy) matches a batch pass over the same records.
//
// Observability: the pipeline feeds the failmine::obs metrics registry —
// counters `stream.records_in`, `stream.records_dropped`,
// `stream.records_late`, `stream.records_processed` (cross-shard total,
// the canonical throughput series for obs::tsdb range queries),
// `stream.shard_stalls`, `stream.interruptions_opened` (clusters the
// router's filter opened), per-shard `stream.shard<i>.processed`; gauges
// `stream.queue_depth`, `stream.watermark_lag_s`,
// `stream.reorder.buffered`, `stream.reorder.pinned_batches`,
// `stream.stalled_shards`, `stream.ingest.occupancy` (the budget in
// use), rolling-window trends `stream.window.failure_rate` /
// `stream.window.fatal`, per-shard `stream.shard<i>.occupancy` (rows
// queued or being applied); histograms `stream.router.batch_us` (the
// router's work on a popped batch, not its wait for shard queue room)
// and per-shard `stream.shard<i>.apply_us`. When StreamConfig.twin is set
// every one of these carries a `twin` label
// (`stream.records_in{twin="t0"}`), so a fleet of pipelines in one
// process keeps disjoint series. A stall watchdog thread watches
// every shard: when a shard's processed counter stops advancing while
// its queue is non-empty for the grace period, the pipeline reports
// unhealthy (healthy() == false — the telemetry server's /healthz turns
// 503) and logs `stream.shard_stalled` until the shard recovers.
//
// Every pipeline thread names itself (pthread_setname_np: "fm.router",
// "fm.shard<i>", "fm.watchdog") and registers with the sampling profiler
// (obs/profile.hpp), and the hot loops run under `stream.router.batch` /
// `stream.shard.apply` spans — so a live `GET /profile` capture yields
// folded stacks keyed by pipeline role and a per-span CPU table that
// names the stream stages.

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

#include "core/event_filter.hpp"
#include "stream/operators.hpp"
#include "stream/record.hpp"
#include "stream/ring_buffer.hpp"
#include "stream/router_operator.hpp"
#include "stream/snapshot.hpp"
#include "stream/watermark.hpp"
#include "topology/machine.hpp"

namespace failmine::stream {

struct StreamConfig {
  topology::MachineConfig machine;

  /// Fleet identity. Empty (the default) keeps the legacy bare metric
  /// spellings (`stream.records_in`, ...). Non-empty stamps every
  /// pipeline instrument with a `twin` label
  /// (`stream.records_in{twin="t0"}`), so several pipelines in one
  /// process register disjoint series instead of colliding on shared
  /// counters.
  std::string twin;

  /// Whether the constructor (re)configures the process-wide
  /// obs::causal_tracer(). A fleet configures the tracer once and turns
  /// this off for its member pipelines so twin N does not clobber the
  /// stage table while twin M is stamping.
  bool configure_tracer = true;

  /// Number of shard workers. 1 serializes all aggregate work behind the
  /// router; N partitions it by key hash.
  std::size_t shard_count = 4;

  /// The budget of records between push and apply (see the header
  /// comment): each pushed batch counts whole until it is freed, except
  /// while a record the watermark reorderer holds back pins it. Each
  /// shard queue also holds at most this many rows.
  std::size_t queue_capacity = 1 << 14;

  /// What a full ingest ring does to producers. Shard queues always
  /// block: once a record is accepted it is never dropped internally.
  BackpressurePolicy policy = BackpressurePolicy::kBlock;

  /// Bound on out-of-order event-time skew tolerated without reordering
  /// errors. 0 means the input is promised to be in order.
  std::int64_t max_lateness_seconds = 900;

  /// Rolling-window geometry (streaming E01/E02 views): trailing
  /// `window_buckets * window_bucket_seconds` of event time.
  std::int64_t window_bucket_seconds = 3600;
  std::size_t window_buckets = 24;

  /// Interruption filter for streaming MTTI (streaming E08); defaults
  /// match the batch pipeline's FilterConfig defaults. The router_operator
  /// reads this filter's verdicts, so it also sets the predictor's
  /// (`--predict`) interruptions.
  core::FilterConfig filter;

  /// Rank-error bound of the runtime quantile sketch.
  double quantile_epsilon = 0.005;

  /// Monitored-key budget of each space-saving sketch.
  std::size_t heavy_hitter_capacity = 64;

  /// Most rows in one slice the router hands a shard, and most rows a
  /// shard worker pops at a time (amortizes locking).
  std::size_t dispatch_batch = 256;

  /// Stall watchdog: a shard whose processed counter stops advancing
  /// while its queue is non-empty for at least this long is reported
  /// stalled. 0 disables the watchdog thread entirely.
  std::int64_t watchdog_grace_ms = 2000;

  /// How often the watchdog samples shard progress.
  std::int64_t watchdog_poll_ms = 100;

  /// Causal-trace sampling: 1-in-N records (deterministic hash of the
  /// record sequence) carries a trace context that is stamped at every
  /// stage (emit -> ring -> reorder -> shard -> apply), feeding the
  /// `causal.stage.<name>_us` / `causal.e2e_us` histograms, their
  /// OpenMetrics exemplars and the /trace endpoint (obs/causal.hpp).
  /// 0 disables tracing entirely (the non-sampled path is one hash and
  /// one branch per record). The pipeline constructor (re)configures the
  /// process-wide obs::causal_tracer() with this period.
  std::uint32_t trace_sample_period = 100;

  /// Optional order-sensitive operator run by the router on the exact
  /// watermark-ordered stream (see router_operator.hpp for the threading
  /// contract). Its snapshot JSON is spliced into StreamSnapshot under
  /// section_name(). The predictor (`--predict`) plugs in here.
  std::shared_ptr<RouterOperator> router_operator;
};

/// Throws DomainError naming the first invalid field of `config`; the
/// StreamPipeline constructor calls it first.
void validate(const StreamConfig& config);

class StreamPipeline {
 public:
  explicit StreamPipeline(StreamConfig config);
  ~StreamPipeline();

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Offers one record. Returns false if backpressure dropped it (only
  /// possible under kDropNewest) or the pipeline is finished.
  bool push(StreamRecord record);

  /// Offers a batch; returns how many records were accepted.
  std::size_t push_batch(std::vector<StreamRecord>&& records);

  /// Drains and stops the pipeline: closes ingestion, flushes the
  /// reorder buffer, joins every thread. Idempotent. After this returns
  /// snapshot() is exact over all accepted records.
  void finish();

  /// Consistent point-in-time view (see header comment).
  StreamSnapshot snapshot() const;

  /// Live JSON snapshot of the attached RouterOperator, taken under the
  /// router mutex (empty string when no operator is configured). This is
  /// the only thread-safe way to read the operator while the pipeline is
  /// running — it backs the telemetry server's /predict endpoint.
  std::string operator_snapshot_json() const;

  /// Stall-watchdog verdict: false while at least one shard has sat on a
  /// non-empty queue without progress for the grace period. Wire this
  /// into obs::TelemetryServer::set_health_handler for a live /healthz.
  bool healthy() const {
    return stalled_shards_.load(std::memory_order_relaxed) == 0;
  }

  /// Test hook: blocks shard `shard`'s worker before its next batch
  /// (true) or releases it (false). Exists to let tests stall a shard
  /// deterministically and watch the watchdog flip healthy() — never
  /// call it in production code.
  void pause_shard_for_test(std::size_t shard, bool paused);

  /// The merged users-by-failures space-saving sketch across all shards
  /// (taken under the shard locks). The fleet layer merges these across
  /// twins for the /fleet cross-fleet heavy-hitter view; the per-twin
  /// guarantees (superset property, error bound) survive the merge.
  SpaceSavingSketch users_by_failures_sketch() const;

  const StreamConfig& config() const { return config_; }

 private:
  struct RouterState {
    RouterState(const StreamConfig& config);

    core::SimilarityFilter filter;     ///< streaming E07/E08
    RollingWindow<2> job_window;       ///< [0]=jobs ended, [1]=failures
    RollingWindow<3> severity_window;  ///< INFO / WARN / FATAL
    analysis::ObservationWindow window;
    util::UnixSeconds newest_seen = 0;
    util::UnixSeconds watermark = 0;
    std::int64_t watermark_lag_seconds = 0;
    std::uint64_t late_records = 0;
  };

  using RecordBatch = std::vector<StreamRecord>;

  /// A shard's share of the records the router released: pointers to
  /// them where they lie, in routed order, and the batches they lie in,
  /// which the slice keeps alive.
  struct RowSlice {
    std::vector<const StreamRecord*> rows;
    std::vector<std::shared_ptr<const RecordBatch>> batches;

    std::size_t size() const { return rows.size(); }

    /// Keeps `batch` alive unless the slice already does.
    void keep(const std::shared_ptr<const RecordBatch>& batch) {
      if (!batches.empty() && batches.back() == batch) return;
      if (std::find(batches.begin(), batches.end(), batch) == batches.end())
        batches.push_back(batch);
    }

    /// RingBuffer's split/join hook: rows [begin, end) of `from` onto
    /// the end of `to`, which keeps every batch `from` keeps.
    friend void move_values(RowSlice& to, RowSlice& from, std::size_t begin,
                            std::size_t end) {
      to.rows.insert(to.rows.end(),
                     from.rows.begin() + static_cast<std::ptrdiff_t>(begin),
                     from.rows.begin() + static_cast<std::ptrdiff_t>(end));
      for (const auto& batch : from.batches) to.keep(batch);
    }
  };

  /// The slices of the records routed since the last hand-off: the one
  /// each shard is filling, and the full ones in the order they filled.
  struct Routed {
    std::vector<RowSlice> filling;
    std::vector<std::pair<std::size_t, RowSlice>> full;
  };

  struct Shard {
    Shard(const StreamConfig& config, std::size_t index,
          const std::vector<obs::MetricLabel>& labels);

    /// Counts rows, the slice the worker is applying included.
    RingBuffer<const StreamRecord*, RowSlice> queue;
    mutable std::mutex mutex;
    ShardAggregates aggregates;
    /// Atomic so the watchdog reads progress without the shard mutex.
    std::atomic<std::uint64_t> processed{0};
    std::thread worker;

    // Per-shard instruments (registry-owned; cached at construction).
    obs::Histogram* apply_us = nullptr;
    obs::Counter* processed_counter = nullptr;

    // Test-only pause gate (see pause_shard_for_test).
    std::mutex pause_mutex;
    std::condition_variable pause_cv;
    bool paused = false;
  };

  /// Pipeline-wide instruments, resolved once at construction with the
  /// twin label applied (registry-owned; plain pointers are stable for
  /// the registry's lifetime). Replaces the former function-local
  /// statics, which pinned every pipeline in the process to one shared
  /// series.
  struct Instruments {
    obs::Counter* records_in = nullptr;
    obs::Counter* records_dropped = nullptr;
    obs::Counter* records_late = nullptr;
    obs::Counter* records_processed = nullptr;
    obs::Gauge* window_failure_rate = nullptr;
    obs::Gauge* window_fatal = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* watermark_lag = nullptr;
    obs::Gauge* reorder_buffered = nullptr;
    obs::Gauge* reorder_pinned = nullptr;
    obs::Gauge* stalled_shards = nullptr;
    obs::Counter* shard_stalls = nullptr;
    obs::Counter* interruptions_opened = nullptr;
    obs::Histogram* router_batch_us = nullptr;
  };

  void router_loop();
  void worker_loop(Shard& shard, std::size_t index);
  void watchdog_loop();
  /// Runs the order-sensitive operators on `record`, which lies in
  /// `batch`, and appends it to its shard's slice in `routed`.
  void route(const StreamRecord& record,
             const std::shared_ptr<const RecordBatch>& batch, Routed& routed);
  /// Hands every slice in `routed` to its shard, full ones first.
  void hand_off(Routed& routed);
  /// Records queued or being applied: the ingest ring's queued records
  /// and the shard queues' rows (`stream.queue_depth`).
  std::size_t queue_depth() const;

  StreamConfig config_;
  std::vector<obs::MetricLabel> labels_;  ///< {} or {{"twin", config_.twin}}
  Instruments inst_;
  /// Its capacity is the queue_capacity budget; a popped batch holds its
  /// space until it is freed (see router_loop).
  RingBuffer<StreamRecord> ingest_;
  /// The most rows in a slice: dispatch_batch, or queue_capacity if that
  /// is smaller.
  const std::size_t slice_rows_;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex router_mutex_;
  RouterState router_;

  std::thread router_thread_;
  mutable std::mutex lifecycle_mutex_;
  bool finished_ = false;

  std::thread watchdog_thread_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::atomic<std::size_t> stalled_shards_{0};
};

}  // namespace failmine::stream
