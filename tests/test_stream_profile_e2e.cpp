// End-to-end test of live profiling: a replay loops through the
// streaming pipeline while GET /profile on the telemetry server runs a
// timed capture over a raw socket. The folded output must carry the
// pipeline's thread names ("fm.shard<i>"), the span attribution must
// list the stream.* hot-loop spans, a concurrent capture request gets
// 409, and fmt validation answers 400.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile.hpp"
#include "obs/serve.hpp"
#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "stream/pipeline.hpp"

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

StreamConfig profile_config() {
  StreamConfig config;
  config.shard_count = 2;
  config.queue_capacity = 1 << 13;
  config.max_lateness_seconds = 0;
  config.watchdog_grace_ms = 0;  // no watchdog noise in CPU profiles
  return config;
}

/// Feeds time-shifted copies of the replay into the pipeline in a loop,
/// so the shard/router threads burn CPU for as long as a capture needs.
/// Each pass shifts event time forward past the previous pass, keeping
/// the watermark monotone under max_lateness 0.
class ReplayFeeder {
 public:
  explicit ReplayFeeder(StreamPipeline& pipeline)
      : pipeline_(pipeline), thread_([this] { run(); }) {}

  ~ReplayFeeder() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    // finish() closes the ingest ring, which unblocks a feeder stuck in
    // push_batch against full queues.
    pipeline_.finish();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    const std::vector<StreamRecord> base = sim::build_replay(trace());
    ASSERT_FALSE(base.empty());
    std::int64_t last = 0;
    for (const StreamRecord& record : base)
      last = std::max<std::int64_t>(last, record.time);
    std::int64_t shift = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::vector<StreamRecord> batch;
      batch.reserve(base.size());
      for (const StreamRecord& record : base) {
        StreamRecord copy = record;
        copy.time += shift;
        batch.push_back(std::move(copy));
      }
      // push_batch returning less than offered means the ring closed.
      if (pipeline_.push_batch(std::move(batch)) < base.size()) return;
      shift += last + 1;
    }
  }

  StreamPipeline& pipeline_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(StreamProfileE2E, LiveCaptureCarriesShardThreadsAndStreamSpans) {
  StreamPipeline pipeline(profile_config());
  obs::TelemetryServer server;
  server.start();
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);
  {
    ReplayFeeder feeder(pipeline);
    // Sample only once the workers are chewing: the feeder first builds
    // its replay (simulating the trace if no test has yet), which can
    // outlast a fixed pause under a sanitizer.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (pipeline.snapshot().records_processed == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));

    const obs::HttpResponse folded =
        obs::http_get(port, "/profile?seconds=0.5&hz=997&fmt=folded");
    ASSERT_EQ(folded.status, 200);
    ASSERT_FALSE(folded.body.empty());
    EXPECT_NE(folded.body.find("fm.shard"), std::string::npos)
        << folded.body.substr(0, 2000);
    EXPECT_NE(folded.body.find("span:stream."), std::string::npos)
        << folded.body.substr(0, 2000);

    const obs::HttpResponse json =
        obs::http_get(port, "/profile?seconds=0.5&hz=997&fmt=json");
    ASSERT_EQ(json.status, 200);
    EXPECT_EQ(json.body.front(), '{');
    EXPECT_EQ(json.body.back(), '}');
    EXPECT_NE(json.body.find("\"spans\":["), std::string::npos);
    EXPECT_NE(json.body.find("stream."), std::string::npos)
        << json.body.substr(0, 2000);
    feeder.stop();
  }
  // The self-metrics advanced and are visible on /metrics.
  const obs::HttpResponse metrics = obs::http_get(port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("obs_profile_samples"), std::string::npos);
  EXPECT_NE(metrics.body.find("obs_serve_requests{path=\"/profile\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("obs_serve_latency_us_bucket"),
            std::string::npos);
  server.stop();
}

TEST(StreamProfileE2E, ConcurrentCaptureGets409) {
  obs::TelemetryServer server;
  server.start();
  const std::uint16_t port = server.port();

  // First capture holds the slot for ~1.5 s on one handler thread; the
  // second request races it on the other handler (pool size 2).
  std::thread long_capture([port] {
    const obs::HttpResponse first =
        obs::http_get(port, "/profile?seconds=1.5&hz=99");
    EXPECT_EQ(first.status, 200);
  });
  // The profiler flips to running as the first handler starts; poll for
  // it rather than assuming scheduling order.
  bool running = false;
  for (int i = 0; i < 200 && !running; ++i) {
    running = obs::Profiler::instance().running();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(running) << "first capture never started";

  const obs::HttpResponse second = obs::http_get(port, "/profile?seconds=1");
  EXPECT_EQ(second.status, 409);
  EXPECT_EQ(second.body, "profiler busy\n");

  long_capture.join();
  server.stop();
}

TEST(StreamProfileE2E, BadFormatRejected) {
  obs::TelemetryServer server;
  server.start();
  const obs::HttpResponse response =
      obs::http_get(server.port(), "/profile?fmt=xml");
  EXPECT_EQ(response.status, 400);
  EXPECT_FALSE(obs::Profiler::instance().running())
      << "a rejected request must not leak a capture";
  server.stop();
}

}  // namespace
}  // namespace failmine::stream
