// perfbench/driver/spans.hpp
//
// The benchmark's own spans, recorded in traced repetitions only. Each
// repetition is one trace: a root span carrying the trace id, a child
// span around every call into the program's public entry points, and
// counts (rows, records) attached at the same boundaries. The program's
// own spans of the repetition (obs::tracer()) are adopted into the tree,
// under their parent span on the same thread or else under the innermost
// benchmark span open when they started. Spans stay in memory and are
// written once, at exit, each with its self time.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct TraceSpan {
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;   ///< id of the parent span; 0 for a root
  std::string name;
  bool program = false;       ///< adopted from obs::tracer()
  std::uint32_t thread = 0;   ///< obs thread index (program spans)
  std::int64_t start_us = 0;  ///< steady clock
  std::int64_t end_us = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
};

class SpanLog {
 public:
  /// A disabled log records nothing (Timed still measures).
  SpanLog(bool enabled, std::uint64_t seed);

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one, or as the root of
  /// a new trace; returns its id (0 when disabled).
  std::uint32_t open(std::string_view name, std::int64_t start_us);
  void close(std::uint32_t id, std::int64_t end_us);
  void count(std::uint32_t id, std::string_view key, std::uint64_t n);

  /// Adopts the program spans recorded during the trace rooted at `root`.
  void adopt(std::uint32_t root,
             const std::vector<failmine::obs::SpanRecord>& records);

  /// {"spans": [...]}, each span with its duration and self time.
  std::string to_json() const;

 private:
  /// The innermost benchmark span among ids [first, last] open at `t`.
  std::uint32_t covering(std::uint32_t first, std::uint32_t last,
                         std::int64_t t) const;

  bool enabled_;
  std::uint64_t seed_;
  std::uint64_t traces_ = 0;
  std::int64_t obs_epoch_us_ = 0;  ///< steady-clock zero of obs::tracer()
  std::vector<TraceSpan> spans_;   ///< span id = index + 1
  std::vector<std::uint32_t> open_;
};

/// Times one call into the program; when the log is enabled the call is
/// also a span.
class Timed {
 public:
  Timed(SpanLog& log, std::string_view name);
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (on the first call) and returns its wall seconds.
  double stop();
  void count(std::string_view key, std::uint64_t n) {
    log_.count(id_, key, n);
  }
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::chrono::steady_clock::time_point start_;
  std::uint32_t id_ = 0;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
