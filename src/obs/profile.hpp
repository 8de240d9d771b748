// failmine/obs/profile.hpp
//
// On-demand sampling CPU profiler — the third leg of the observability
// stack (metrics say *that* a shard is slow, traces say *where* in the
// phase tree, profiles say *why*: which code is burning the CPU).
//
// Dependency-free and in-process: every attached thread gets a POSIX
// per-thread CPU-time timer (timer_create over pthread_getcpuclockid,
// SIGEV_THREAD_ID) delivering SIGPROF at the configured frequency. The
// async-signal-safe handler walks the frame-pointer chain (or calls glibc
// backtrace() when ProfileConfig::use_backtrace is set) and appends the
// stack — tagged with the innermost active obs::Span names (see
// trace.hpp/SpanLabelStack) and the thread's name — into a preallocated
// lock-free sample ring. A full ring counts drops instead of blocking.
// Symbolization (dladdr + demangling) happens offline at stop().
//
// Output:
//   ProfileReport::folded()           Brendan Gregg collapsed-stack
//                                     format, one "thread;span:…;frames…
//                                     count" line per unique stack —
//                                     feed to flamegraph.pl / speedscope
//   ProfileReport::span_table_text()  per-span self/total CPU table that
//                                     complements the tracer's wall-time
//                                     summary
//   ProfileReport::to_json()          the same data as one JSON document
//
// Reachable three ways: this programmatic API (ProfileSession RAII, used
// by bench_common.hpp via FAILMINE_PROFILE=out.folded[:HZ]), the shared
// `--profile-out PATH[:HZ]` flag handled by obs::ObsSession for every
// CLI subcommand and bench binary, and live over the telemetry server
// (`GET /profile?seconds=N&hz=H&fmt=folded|json`, see obs/serve.hpp).
//
// Self-metrics (cumulative across captures): `obs.profile.samples`,
// `obs.profile.dropped` (ring overflow), `obs.profile.truncated_stacks`
// (frame-depth cap hit).
//
// Threads are sampled only if attached. Attachment is automatic for any
// thread that opens an obs::Span, and explicit via
// profile_attach_this_thread() for threads that should appear in
// profiles before their first span (the stream pipeline attaches its
// shard/router workers right after naming them, so folded stacks carry
// shard identity).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace failmine::obs {

struct ProfileConfig {
  /// Sampling frequency per thread, Hz (clamped to [1, 1000]). 99 is the
  /// classic off-by-one from 100 that avoids lockstep with 10ms timers.
  int hz = 99;

  /// Sample-ring capacity. Samples past it are counted in dropped — the
  /// handler never blocks and never allocates.
  std::size_t max_samples = 1 << 15;

  /// Capture stacks with glibc backtrace() instead of the frame-pointer
  /// walk (for code built without frame pointers).
  bool use_backtrace = false;
};

/// One unique collapsed stack ("thread;span:…;outer;…;leaf") and how
/// many samples landed on it.
struct FoldedStack {
  std::string stack;
  std::uint64_t count = 0;
};

/// CPU attribution of one span name: self = samples where it was the
/// innermost active span, total = samples where it was active anywhere
/// on the span stack. Samples with no active span aggregate under
/// "(no span)".
struct SpanCpu {
  std::string name;
  std::uint64_t self_samples = 0;
  std::uint64_t total_samples = 0;
  double self_seconds = 0.0;   ///< self_samples / hz
  double total_seconds = 0.0;  ///< total_samples / hz
};

struct ProfileReport {
  int hz = 0;
  double duration_seconds = 0.0;
  std::uint64_t samples = 0;           ///< stacks captured into the ring
  std::uint64_t dropped = 0;           ///< lost to ring overflow
  std::uint64_t truncated_stacks = 0;  ///< hit the frame-depth cap
  std::vector<FoldedStack> stacks;     ///< sorted by count, descending
  std::vector<SpanCpu> spans;          ///< sorted by total, descending

  /// Collapsed-stack document: one "stack count\n" line per entry.
  std::string folded() const;
  /// Human-readable per-span CPU table (pairs with tracer summary_text).
  std::string span_table_text() const;
  /// Everything above as one JSON document.
  std::string to_json() const;
  /// Writes folded() to `path`; throws ObsError on I/O failure.
  void write_folded(const std::string& path) const;
};

/// The process-wide profiler. One capture at a time: start() while a
/// capture is running returns false (the serve endpoint maps that to
/// HTTP 409).
class Profiler {
 public:
  static Profiler& instance();

  /// Arms per-thread timers on every attached thread and begins
  /// sampling. Returns false if a capture is already running. Throws
  /// ObsError if the SIGPROF handler cannot be installed.
  bool start(const ProfileConfig& config = {});

  bool running() const;

  /// Disarms the timers, waits for in-flight handlers, symbolizes and
  /// aggregates. Returns an empty report when no capture was running.
  /// Also bumps the obs.profile.* counters by this capture's totals.
  ProfileReport stop();

 private:
  Profiler() = default;
};

/// Registers the calling thread with the profiler (idempotent; cheap
/// after the first call). Captures in progress start sampling the thread
/// immediately; the thread's name (pthread_setname_np) is re-read at
/// every capture start.
void profile_attach_this_thread();

/// Parses a "PATH[:HZ]" profile spec ("out.folded", "out.folded:199").
/// Throws ParseError on an empty path or a non-positive / non-numeric
/// rate.
std::pair<std::string, int> parse_profile_spec(std::string_view spec,
                                               int default_hz = 99);

/// RAII capture: starts at construction, on finish() (or destruction)
/// stops and writes the folded stacks to the path from `spec`
/// ("PATH[:HZ]"). Throws ObsError at construction when a capture is
/// already running.
class ProfileSession {
 public:
  explicit ProfileSession(const std::string& spec, int default_hz = 99);

  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  /// finish() if still active, swallowing ObsError (profiling must not
  /// turn a successful run into a crash at exit).
  ~ProfileSession();

  /// Stops the capture, writes the folded file and returns the report.
  /// Idempotent: later calls return an empty report. Throws ObsError on
  /// I/O failure.
  ProfileReport finish();

  const std::string& path() const { return path_; }
  bool active() const { return active_; }

 private:
  std::string path_;
  bool active_ = false;
};

}  // namespace failmine::obs
