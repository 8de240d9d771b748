// perfbench/driver/helpers.hpp
//
// Pure helpers of the repository benchmark: order statistics over
// repetition samples, the bitwise digest answers are compared with,
// /proc/self/status parsing, per-repetition deltas of the program's
// metrics registry and span self time. Nothing here touches
// process-wide state; perfbench/tests/test_helpers.cpp covers each one.

#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double median(std::vector<double> values);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method).
/// One value is all three quartiles; an empty sample gives zeros.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// 64-bit FNV-1a over a canonical byte stream. Doubles are folded by bit
/// pattern, so two answers digest equal only if every double in them is
/// bit-identical.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add_u64(std::uint64_t v);
  void add_i64(std::int64_t v) { add_u64(static_cast<std::uint64_t>(v)); }
  void add_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_string(std::string_view s) {
    add_u64(s.size());
    add_bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// The value of a `Key:   1234 kB` line of /proc/<pid>/status text
/// (VmRSS, VmHWM, ...), or nullopt when the key is absent or malformed.
std::optional<std::uint64_t> status_kb(std::string_view status_text,
                                       std::string_view key);

/// Registry instruments as differences between two samples taken around
/// one repetition: counters and histograms accumulate for the life of
/// the process, so every per-repetition reading goes through here.
class MetricsDelta {
 public:
  MetricsDelta(const failmine::obs::MetricsSample& before,
               const failmine::obs::MetricsSample& after);

  /// after - before; 0 for a counter absent from `after`.
  std::uint64_t counter(std::string_view name) const;
  /// Bucket-wise after - before (an empty sample when absent).
  const failmine::obs::HistogramSample& histogram(std::string_view name) const;
  /// Quantile of the histogram delta (0 when it saw no observations).
  double quantile(std::string_view name, double q) const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, failmine::obs::HistogramSample>>
      histograms_;
  failmine::obs::HistogramSample empty_;
};

/// Self time of a span over [start, end): its duration minus the part of
/// that interval its children's intervals cover (overlaps counted once).
std::int64_t self_time_us(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children);

}  // namespace perfbench
