#include "obs/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/alerts.hpp"
#include "obs/causal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/prometheus.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_query.hpp"
#include "util/error.hpp"

namespace failmine::obs {

namespace {

Counter& requests_counter() {
  static Counter& c = metrics().counter("obs.serve.requests");
  return c;
}
Counter& bad_requests_counter() {
  static Counter& c = metrics().counter("obs.serve.bad_requests");
  return c;
}
Counter& rejected_counter() {
  static Counter& c = metrics().counter("obs.serve.rejected_connections");
  return c;
}
Histogram& latency_us_histogram() {
  static Histogram& h = metrics().histogram(
      "obs.serve.latency_us", {50, 100, 250, 500, 1000, 2500, 5000, 10000,
                               25000, 50000, 100000});
  return h;
}

/// The routes the server answers; everything else aggregates under
/// "other" so per-path counters stay bounded-cardinality no matter what
/// clients probe for.
constexpr const char* kRoutes[] = {"/metrics", "/snapshot", "/healthz",
                                   "/flightrecorder", "/profile",
                                   "/trace", "/alerts", "/predict",
                                   "/query", "/series", "/fleet"};

/// Per-endpoint request counter, encoded with the label inside the
/// metric name (`obs.serve.requests{path="/metrics"}`). The registry is
/// label-unaware; the Prometheus renderer splits the name at '{' and
/// emits the brace block as a real label set (see prometheus.cpp).
Counter& path_counter(std::string_view route) {
  std::string name = "obs.serve.requests{path=\"";
  name += route;
  name += "\"}";
  return metrics().counter(name);
}

void count_request(const std::string& route) {
  requests_counter().add();
  const bool known = std::any_of(
      std::begin(kRoutes), std::end(kRoutes),
      [&](const char* r) { return route == r; });
  path_counter(known ? route : "other").add();
}

/// Parses "key=value" pairs out of a query string; returns `fallback`
/// when the key is absent or its value is empty.
std::string query_param(std::string_view query, std::string_view key,
                        std::string_view fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(pos, end - pos);
    if (const std::size_t eq = pair.find('=');
        eq != std::string_view::npos && pair.substr(0, eq) == key &&
        eq + 1 < pair.size())
      return std::string(pair.substr(eq + 1));
    pos = end + 1;
  }
  return std::string(fallback);
}

/// %xx / '+' decoding for query-string values (the /query expression
/// carries braces, quotes, `=~` and `[window]` suffixes, which curl
/// clients URL-encode). Returns false on a malformed %-escape
/// (truncated or non-hex) so the caller answers 400 instead of feeding
/// a silently mangled expression to the parser.
bool url_decode(std::string_view s, std::string& out) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%') {
      if (i + 2 >= s.size() || hex(s[i + 1]) < 0 || hex(s[i + 2]) < 0)
        return false;
      out.push_back(static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return true;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t rc = ::send(fd, data.data() + sent, data.size() - sent,
                              MSG_NOSIGNAL);
    if (rc <= 0) return;  // peer went away; nothing to salvage
    sent += static_cast<std::size_t>(rc);
  }
}

void send_response(int fd, int status, const char* reason,
                   const char* content_type, std::string_view body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  send_all(fd, head);
  send_all(fd, body);
}

/// Reads until the end of the request headers (CRLFCRLF) or a small cap;
/// returns the target path of a well-formed GET, "" otherwise.
std::string read_request_path(int fd) {
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  if (request.rfind("GET ", 0) != 0) return "";
  const std::size_t path_end = request.find(' ', 4);
  if (path_end == std::string::npos) return "";
  if (request.compare(path_end, 9, " HTTP/1.1", 0, 9) != 0 &&
      request.compare(path_end, 9, " HTTP/1.0", 0, 9) != 0) {
    // tolerate missing version only for the bare "GET /path\r\n" form
    if (request.find("\r\n", path_end) != path_end) return "";
  }
  return request.substr(4, path_end - 4);
}

/// GET /query?expr=...&start=...&end=...&step=... against the global
/// time-series store. Times are unix seconds; defaults are the trailing
/// 5 minutes ending at the newest scrape, ~240 steps — and an *instant*
/// evaluation at the newest scrape when neither start nor step is given.
void handle_query(int fd, const std::string& query) {
  TsdbStore& store = tsdb();
  if (!store.has_data()) {
    send_response(fd, 404, "Not Found", "text/plain",
                  "tsdb not enabled (run with --tsdb)\n");
    return;
  }
  std::string expr;
  if (!url_decode(query_param(query, "expr", ""), expr)) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  "malformed %-escape in expr\n");
    return;
  }
  if (expr.empty()) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  "need ?expr=<expression>\n");
    return;
  }
  const std::string start_text = query_param(query, "start", "");
  const std::string step_text = query_param(query, "step", "");
  const double latest_s = static_cast<double>(store.latest_ms()) / 1000.0;
  const double end_s =
      std::atof(query_param(query, "end", std::to_string(latest_s)).c_str());
  double start_s =
      start_text.empty() ? end_s - 300.0 : std::atof(start_text.c_str());
  if (start_text.empty() && step_text.empty()) start_s = end_s;  // instant
  const double step_s =
      step_text.empty() ? std::max((end_s - start_s) / 240.0, 0.001)
                        : std::atof(step_text.c_str());
  // NaN or a huge time would wrap the millisecond conversions below.
  const auto in_range = [](double seconds) {
    return std::fabs(seconds) * 1000.0 <=
           static_cast<double>(kMaxTsdbDurationMs);
  };
  if (!in_range(start_s) || !in_range(end_s) || !in_range(step_s) ||
      !(step_s > 0.0) || end_s < start_s) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  "need start <= end and step > 0, each within 2^53 ms\n");
    return;
  }
  if ((end_s - start_s) / step_s > 100'000.0) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  "too many steps (raise step or narrow the range)\n");
    return;
  }
  const auto to_ms = [](double seconds) {
    return static_cast<std::int64_t>(std::llround(seconds * 1000.0));
  };
  try {
    const TsdbQuery parsed = parse_tsdb_query(expr);
    const TsdbQueryResult result =
        eval_tsdb_query(store, parsed, to_ms(start_s), to_ms(end_s),
                        std::max<std::int64_t>(to_ms(step_s), 1));
    send_response(fd, 200, "OK", "application/json",
                  tsdb_query_json(expr, to_ms(start_s), to_ms(end_s),
                                  std::max<std::int64_t>(to_ms(step_s), 1),
                                  result));
  } catch (const failmine::Error& e) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  std::string(e.what()) + "\n");
  }
}

}  // namespace

TelemetryServer::TelemetryServer(ServeConfig config)
    : config_(std::move(config)) {}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::set_snapshot_handler(SnapshotHandler handler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  snapshot_handler_ = std::move(handler);
}

void TelemetryServer::set_predict_handler(SnapshotHandler handler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  predict_handler_ = std::move(handler);
}

void TelemetryServer::set_fleet_handler(SnapshotHandler handler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fleet_handler_ = std::move(handler);
}

void TelemetryServer::set_health_handler(HealthHandler handler) {
  const std::lock_guard<std::mutex> lock(mutex_);
  health_handler_ = std::move(handler);
}

void TelemetryServer::start() {
  if (listen_fd_ >= 0) return;
  if (config_.handler_threads == 0)
    throw failmine::DomainError("ServeConfig.handler_threads must be positive");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw failmine::ObsError("telemetry server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    throw failmine::ObsError("telemetry server: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;

  // Pre-create every self-metric (including the per-path counters and
  // the profiler's) so a first scrape — or an unscraped --metrics-out
  // export — already lists the full family at zero.
  (void)requests_counter();
  (void)bad_requests_counter();
  (void)rejected_counter();
  (void)latency_us_histogram();
  for (const char* route : kRoutes) (void)path_counter(route);
  (void)path_counter("other");
  (void)metrics().counter("obs.profile.samples");
  (void)metrics().counter("obs.profile.dropped");
  (void)metrics().counter("obs.profile.truncated_stacks");
  (void)metrics().gauge("obs.alerts.firing");
  (void)metrics().counter("obs.alerts.evaluations");
  (void)metrics().counter("obs.alerts.transitions");
  update_process_metrics();  // process_start_time_seconds + uptime

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
  }
  for (std::size_t i = 0; i < config_.handler_threads; ++i)
    workers_.emplace_back([this] {
      (void)::pthread_setname_np(::pthread_self(), "fm.serve");
      profile_attach_this_thread();
      handler_loop();
    });
  accept_thread_ = std::thread([this] {
    (void)::pthread_setname_np(::pthread_self(), "fm.accept");
    profile_attach_this_thread();
    accept_loop();
  });

  logger().info("obs.serve_started",
                {Field("port", static_cast<std::uint64_t>(bound_port_)),
                 Field("handlers",
                       static_cast<std::uint64_t>(config_.handler_threads))});
}

void TelemetryServer::stop() {
  if (listen_fd_ < 0) return;
  // Unblocks accept(); the loop sees the failure and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  pending_cv_.notify_all();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  listen_fd_ = -1;
  logger().info("obs.serve_stopped",
                {Field("port", static_cast<std::uint64_t>(bound_port_)),
                 Field("requests", requests_counter().value())});
}

void TelemetryServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listen socket closed by stop()
    timeval timeout{};
    timeout.tv_sec = config_.receive_timeout_seconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    bool rejected = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() >= config_.max_pending)
        rejected = true;
      else
        pending_.push_back(fd);
    }
    if (rejected) {
      rejected_counter().add();
      send_response(fd, 503, "Service Unavailable", "text/plain",
                    "overloaded\n");
      ::close(fd);
    } else {
      pending_cv_.notify_one();
    }
  }
}

void TelemetryServer::handler_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      pending_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void TelemetryServer::handle_connection(int fd) {
  const auto start = std::chrono::steady_clock::now();
  const std::string target = read_request_path(fd);
  if (target.empty()) {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  const std::size_t question = target.find('?');
  const std::string path = target.substr(0, question);
  const std::string query =
      question == std::string::npos ? "" : target.substr(question + 1);
  count_request(path);

  if (path == "/metrics") {
    update_process_metrics();  // fresh uptime on every scrape
    if (query_param(query, "format", "prometheus") == "openmetrics")
      send_response(fd, 200, "OK", std::string(kOpenMetricsContentType).c_str(),
                    render_openmetrics(metrics()));
    else
      send_response(fd, 200, "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(metrics()));
  } else if (path == "/snapshot") {
    SnapshotHandler handler;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      handler = snapshot_handler_;
    }
    if (handler)
      send_response(fd, 200, "OK", "application/json", handler());
    else
      send_response(fd, 404, "Not Found", "text/plain",
                    "no snapshot source\n");
  } else if (path == "/predict") {
    SnapshotHandler handler;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      handler = predict_handler_;
    }
    if (handler)
      send_response(fd, 200, "OK", "application/json", handler());
    else
      send_response(fd, 404, "Not Found", "text/plain",
                    "no predictor attached\n");
  } else if (path == "/fleet") {
    SnapshotHandler handler;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      handler = fleet_handler_;
    }
    if (handler)
      send_response(fd, 200, "OK", "application/json", handler());
    else
      send_response(fd, 404, "Not Found", "text/plain",
                    "no fleet attached (run with --fleet)\n");
  } else if (path == "/healthz") {
    HealthHandler handler;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      handler = health_handler_;
    }
    const bool healthy = handler ? handler() : true;
    // JSON body: status plus the alert engine's firing count, so one
    // probe answers both "is the pipeline stuck" (the status code,
    // driven by the health callback alone) and "is any SLO burning".
    const std::string body =
        std::string("{\"status\":\"") + (healthy ? "ok" : "unhealthy") +
        "\",\"alerts_firing\":" + std::to_string(alerts().firing()) + "}\n";
    if (healthy)
      send_response(fd, 200, "OK", "application/json", body);
    else
      send_response(fd, 503, "Service Unavailable", "application/json", body);
  } else if (path == "/flightrecorder") {
    send_response(fd, 200, "OK", "application/x-ndjson",
                  flight_recorder().dump());
  } else if (path == "/profile") {
    handle_profile(fd, query);
  } else if (path == "/trace") {
    const std::string id_text = query_param(query, "id", "");
    std::uint64_t id = 0;
    if (id_text.empty() || !parse_trace_id(id_text, id)) {
      bad_requests_counter().add();
      send_response(fd, 400, "Bad Request", "text/plain",
                    "need ?id=<16 hex digits>\n");
    } else if (const auto timeline = causal_tracer().find(id)) {
      send_response(fd, 200, "OK", "application/json", timeline->to_json());
    } else {
      send_response(fd, 404, "Not Found", "text/plain",
                    "trace not found (not sampled, or slot recycled)\n");
    }
  } else if (path == "/alerts") {
    send_response(fd, 200, "OK", "application/json", alerts().to_json());
  } else if (path == "/query") {
    handle_query(fd, query);
  } else if (path == "/series") {
    if (tsdb().has_data())
      send_response(fd, 200, "OK", "application/json",
                    tsdb_series_json(tsdb()));
    else
      send_response(fd, 404, "Not Found", "text/plain",
                    "tsdb not enabled (run with --tsdb)\n");
  } else {
    send_response(fd, 404, "Not Found", "text/plain", "not found\n");
  }
  latency_us_histogram().observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

void TelemetryServer::handle_profile(int fd, const std::string& query) {
  const double seconds = std::clamp(
      std::atof(query_param(query, "seconds", "1").c_str()), 0.05, 60.0);
  const int hz =
      std::clamp(std::atoi(query_param(query, "hz", "99").c_str()), 1, 1000);
  const std::string fmt = query_param(query, "fmt", "folded");
  if (fmt != "folded" && fmt != "json") {
    bad_requests_counter().add();
    send_response(fd, 400, "Bad Request", "text/plain",
                  "fmt must be folded or json\n");
    return;
  }

  ProfileConfig config;
  config.hz = hz;
  if (!Profiler::instance().start(config)) {
    send_response(fd, 409, "Conflict", "text/plain", "profiler busy\n");
    return;
  }

  // Timed capture, sliced so a server stop() during a long capture only
  // waits one slice, not the full window.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            deadline - now, std::chrono::milliseconds(25)));
  }
  const ProfileReport report = Profiler::instance().stop();

  if (fmt == "json")
    send_response(fd, 200, "OK", "application/json", report.to_json());
  else
    send_response(fd, 200, "OK", "text/plain; charset=utf-8",
                  report.folded());
}

HttpResponse http_get(std::uint16_t port, const std::string& path,
                      int timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw failmine::ObsError("http_get: socket() failed");
  timeval timeout{};
  timeout.tv_sec = timeout_seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw failmine::ObsError("http_get: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  send_all(fd, request);

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.", 0) != 0 || header_end == std::string::npos)
    throw failmine::ObsError("http_get: malformed response from port " +
                             std::to_string(port));
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + 9);
  response.headers = raw.substr(0, header_end);
  response.body = raw.substr(header_end + 4);
  return response;
}

}  // namespace failmine::obs
