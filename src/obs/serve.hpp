// failmine/obs/serve.hpp
//
// Embedded live-telemetry endpoint: a small blocking HTTP/1.1 server
// (POSIX sockets, no third-party deps) exposing the process's own
// observability state while an analysis pipeline runs:
//
//   GET /metrics          Prometheus text exposition of obs::metrics();
//                         ?format=openmetrics switches to OpenMetrics
//                         with histogram exemplars (trace ids). Every
//                         scrape refreshes process_start_time_seconds /
//                         failmine_uptime_seconds.
//   GET /snapshot         caller-provided JSON (the live StreamSnapshot)
//   GET /healthz          200/503 from the caller's health callback (the
//                         stream stall watchdog); JSON body carries
//                         "status" and the alert engine's
//                         "alerts_firing" count
//   GET /trace?id=<hex>   stage timeline of one sampled causal trace
//                         (obs/causal.hpp) — the ids exemplars carry;
//                         404 once the trace's slot has been recycled
//   GET /alerts           alert-rule engine status (obs/alerts.hpp):
//                         every rule with state/value/threshold, JSON
//   GET /predict          live failure-prediction state (top at-risk
//                         jobs, precision/recall/lead-time summary,
//                         checkpoint-policy scoreboard) when a predictor
//                         is attached (failmine_cli stream --predict)
//   GET /fleet            cross-twin rollup when a fleet is attached
//                         (failmine_cli stream --fleet=N): per-twin
//                         health/snapshot summaries plus the merged
//                         top-users-by-failures heavy-hitter sketch
//   GET /query            range/instant expressions over the embedded
//                         time-series store (obs/tsdb_query.hpp) —
//                         ?expr=rate(stream.records_in[1m]) (URL-encoded)
//                         &start=&end= (unix seconds, default: trailing
//                         5 min ending at the newest scrape) &step=
//                         (seconds). 404 until obs::tsdb() has data,
//                         400 with the parser's message on a bad expr
//                         and on a NaN or out-of-range time or step
//   GET /series           stored-series inventory: per-series type,
//                         sample count, resident bytes and time range,
//                         plus store-level stats; 404 until the store
//                         has data
//   GET /flightrecorder   JSONL dump of obs::flight_recorder()
//   GET /profile          timed CPU capture via obs::profile —
//                         ?seconds=N (0.05–60, default 1), ?hz=H
//                         (1–1000, default 99), ?fmt=folded|json.
//                         Answers 409 Conflict while another capture
//                         (from any entry point) is running.
//
// One accept thread feeds a bounded connection queue drained by a small
// handler pool; a full queue answers 503 at accept rather than letting
// scrapes pile up behind a slow handler. stop() (or destruction) closes
// the listen socket, drains the queue and joins every thread, so a
// pipeline can serve until its last snapshot and shut down cleanly.
//
// The server reports on itself through the registry it serves:
// `obs.serve.requests` (total), per-endpoint
// `obs.serve.requests{path="..."}` counters (unknown paths aggregate
// under path="other"), `obs.serve.bad_requests` /
// `obs.serve.rejected_connections` counters and the
// `obs.serve.latency_us` request-latency histogram — all pre-registered
// at start() so exports list the full family before the first scrape.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace failmine::obs {

struct ServeConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after start()).
  std::uint16_t port = 0;

  /// Handler pool size (concurrent in-flight responses).
  std::size_t handler_threads = 2;

  /// Accepted connections waiting for a handler beyond this are closed
  /// immediately with 503.
  std::size_t max_pending = 64;

  /// Per-connection receive timeout, seconds.
  int receive_timeout_seconds = 5;
};

class TelemetryServer {
 public:
  using SnapshotHandler = std::function<std::string()>;
  using HealthHandler = std::function<bool()>;

  explicit TelemetryServer(ServeConfig config = {});

  /// Stops and joins (idempotent with stop()).
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Body of GET /snapshot. Unset -> 404. Called on a handler thread,
  /// so it may take pipeline locks but must not block indefinitely.
  void set_snapshot_handler(SnapshotHandler handler);

  /// Body of GET /predict — the prediction subsystem's live JSON (wire
  /// StreamPipeline::operator_snapshot_json here). Unset -> 404.
  void set_predict_handler(SnapshotHandler handler);

  /// Body of GET /fleet — the cross-twin rollup JSON (wire
  /// StreamFleet::fleet_json here). Unset -> 404.
  void set_fleet_handler(SnapshotHandler handler);

  /// GET /healthz verdict. Unset -> always healthy.
  void set_health_handler(HealthHandler handler);

  /// Binds, listens and spawns the accept + handler threads. Throws
  /// ObsError if the socket cannot be bound.
  void start();

  /// Closes the listen socket, drains pending connections, joins all
  /// threads. Idempotent; called by the destructor.
  void stop();

  /// The bound port (resolves port 0 after start()).
  std::uint16_t port() const { return bound_port_; }

  bool running() const { return listen_fd_ >= 0; }

 private:
  void accept_loop();
  void handler_loop();
  void handle_connection(int fd);
  void handle_profile(int fd, const std::string& query);

  ServeConfig config_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::mutex mutex_;  // guards handlers_, pending_, stopping_
  SnapshotHandler snapshot_handler_;
  SnapshotHandler predict_handler_;
  SnapshotHandler fleet_handler_;
  HealthHandler health_handler_;
  std::deque<int> pending_;
  bool stopping_ = false;
  std::condition_variable pending_cv_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port` — the
/// raw-socket client the serve tests and the S02 overhead bench use (a
/// curl equivalent without the dependency). Throws ObsError on connect
/// or protocol failure.
struct HttpResponse {
  int status = 0;
  std::string headers;  ///< raw header block
  std::string body;
};
HttpResponse http_get(std::uint16_t port, const std::string& path,
                      int timeout_seconds = 10);

}  // namespace failmine::obs
