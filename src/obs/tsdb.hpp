// failmine/obs/tsdb.hpp
//
// Embedded compressed time-series store over the metrics registry.
//
// A background scraper thread samples every counter, gauge and
// histogram in a MetricsRegistry at a fixed interval into per-series
// append-only chunks. Samples are Gorilla-compressed — delta-of-delta
// timestamps and XOR'd value bits — so a steady counter costs ~2 bits
// per sample and an active one ~3-4 bytes. Each series keeps three
// fixed-size chunk rings at raw / 10 s / 1 m resolution (downsampling
// keeps the last value per aligned bucket), bounding memory while
// retaining hours of coarse history behind seconds of raw detail.
//
// Readers never block the writer: every reader-visible chunk field is
// an atomic and each series carries a seqlock generation (odd while an
// append is in flight), mirroring Histogram::ExemplarSlot — a racing
// reader copies the chunk bytes, re-checks the generation and retries,
// so concurrent scrape + query is tear-free and TSan-clean.
//
// Typical use:
//
//   obs::tsdb().start(1000);             // scrape the global registry at 1 Hz
//   ...
//   auto pts = obs::tsdb().read_series("stream.records_in", t0, t1);
//   auto inc = obs::tsdb().increase_over("stream.records_in", t1, 60'000);
//
// The query layer on top (value/rate/increase/aggregation/quantiles,
// /query and /series HTTP handlers, sparkline trend reports) lives in
// obs/tsdb_query.hpp.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metrics.hpp"

namespace failmine::obs {

// ---------------------------------------------------------------------------
// Gorilla codec
// ---------------------------------------------------------------------------

/// Incremental encoder/decoder state for one compressed sample stream.
/// The same struct drives both directions; feed it samples (encode) or
/// bits (decode) in order, never mixed.
struct GorillaState {
  std::uint32_t count = 0;
  std::int64_t prev_t = 0;
  std::int64_t prev_delta = 0;
  std::uint64_t prev_bits = 0;
  int prev_leading = -1;  ///< <0 = no reusable leading/trailing window yet
  int prev_trailing = 0;
};

namespace tsdb_detail {

inline std::uint64_t zigzag64(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag64(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^
         -static_cast<std::int64_t>(z & 1);
}

template <class PutBit>
void put_bits(PutBit& put, std::uint64_t v, int n) {
  for (int i = n - 1; i >= 0; --i) put(((v >> i) & 1u) != 0);
}

template <class GetBit>
std::uint64_t get_bits(GetBit& get, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v = (v << 1) | (get() ? 1u : 0u);
  return v;
}

}  // namespace tsdb_detail

/// Upper bound on the bit cost of one encoded sample (timestamp control
/// '1111' + 64-bit delta-of-delta, value control '11' + 5 + 6 + 64
/// meaningful bits). Chunk writers seal when fewer bits remain.
inline constexpr std::uint32_t kGorillaMaxSampleBits = 4 + 64 + 2 + 5 + 6 + 64;

/// Encodes one (timestamp, raw value bits) sample. `put` is invoked once
/// per output bit, most-significant first. The first sample of a stream
/// is stored raw (64 + 64 bits); later samples use:
///
///   timestamps — delta-of-delta bucketed as
///     '0'                 dod == 0
///     '10'  + 9-bit zz    |zigzag(dod)| < 2^9
///     '110' + 14-bit zz   < 2^14
///     '1110'+ 20-bit zz   < 2^20
///     '1111'+ 64-bit zz   otherwise
///   values — XOR vs previous value bits
///     '0'                  identical
///     '10' + meaningful    fits the previous leading/trailing window
///     '11' + 5-bit leading + 6-bit (meaningful-1) + meaningful bits
template <class PutBit>
void gorilla_encode(GorillaState& st, std::int64_t t_ms,
                    std::uint64_t value_bits, PutBit&& put) {
  using tsdb_detail::put_bits;
  using tsdb_detail::zigzag64;
  if (st.count == 0) {
    put_bits(put, static_cast<std::uint64_t>(t_ms), 64);
    put_bits(put, value_bits, 64);
    st.prev_t = t_ms;
    st.prev_delta = 0;
    st.prev_bits = value_bits;
    st.count = 1;
    return;
  }
  const std::int64_t delta = t_ms - st.prev_t;
  const std::int64_t dod = delta - st.prev_delta;
  if (dod == 0) {
    put(false);
  } else {
    const std::uint64_t zz = zigzag64(dod);
    if (zz < (1ull << 9)) {
      put(true); put(false);
      put_bits(put, zz, 9);
    } else if (zz < (1ull << 14)) {
      put(true); put(true); put(false);
      put_bits(put, zz, 14);
    } else if (zz < (1ull << 20)) {
      put(true); put(true); put(true); put(false);
      put_bits(put, zz, 20);
    } else {
      put(true); put(true); put(true); put(true);
      put_bits(put, zz, 64);
    }
  }
  st.prev_delta = delta;
  st.prev_t = t_ms;

  const std::uint64_t x = value_bits ^ st.prev_bits;
  if (x == 0) {
    put(false);
  } else {
    put(true);
    int leading = std::countl_zero(x);
    const int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    if (st.prev_leading >= 0 && leading >= st.prev_leading &&
        trailing >= st.prev_trailing) {
      put(false);
      const int n = 64 - st.prev_leading - st.prev_trailing;
      put_bits(put, x >> st.prev_trailing, n);
    } else {
      put(true);
      const int n = 64 - leading - trailing;  // 1..64; stored as n-1
      put_bits(put, static_cast<std::uint64_t>(leading), 5);
      put_bits(put, static_cast<std::uint64_t>(n - 1), 6);
      put_bits(put, x >> trailing, n);
      st.prev_leading = leading;
      st.prev_trailing = trailing;
    }
  }
  st.prev_bits = value_bits;
  ++st.count;
}

/// Decodes the next sample from a stream encoded by gorilla_encode.
/// `get` is invoked once per input bit and must yield the bits in the
/// order they were put.
template <class GetBit>
void gorilla_decode(GorillaState& st, GetBit&& get, std::int64_t& t_ms,
                    std::uint64_t& value_bits) {
  using tsdb_detail::get_bits;
  using tsdb_detail::unzigzag64;
  if (st.count == 0) {
    t_ms = static_cast<std::int64_t>(get_bits(get, 64));
    value_bits = get_bits(get, 64);
    st.prev_t = t_ms;
    st.prev_delta = 0;
    st.prev_bits = value_bits;
    st.count = 1;
    return;
  }
  std::int64_t dod = 0;
  if (get()) {
    int width = 0;
    if (!get()) {
      width = 9;
    } else if (!get()) {
      width = 14;
    } else if (!get()) {
      width = 20;
    } else {
      width = 64;
    }
    dod = unzigzag64(get_bits(get, width));
  }
  st.prev_delta += dod;
  st.prev_t += st.prev_delta;
  t_ms = st.prev_t;

  if (get()) {
    if (!get()) {
      const int n = 64 - st.prev_leading - st.prev_trailing;
      const std::uint64_t x = get_bits(get, n) << st.prev_trailing;
      st.prev_bits ^= x;
    } else {
      const int leading = static_cast<int>(get_bits(get, 5));
      const int n = static_cast<int>(get_bits(get, 6)) + 1;
      const int trailing = 64 - leading - n;
      const std::uint64_t x = get_bits(get, n) << trailing;
      st.prev_leading = leading;
      st.prev_trailing = trailing;
      st.prev_bits ^= x;
    }
  }
  value_bits = st.prev_bits;
  ++st.count;
}

// ---------------------------------------------------------------------------
// Points and pure range helpers
// ---------------------------------------------------------------------------

/// One decoded sample.
struct TsdbPoint {
  std::int64_t t_ms = 0;
  double value = 0.0;
};

/// Plain-byte Gorilla chunk: the reference codec used by unit tests and
/// anywhere a single-threaded compressed buffer is handy. The store's
/// internal chunks use the same encode/decode templates over atomic
/// payload bytes.
class GorillaChunk {
 public:
  void append(std::int64_t t_ms, double value);
  std::uint32_t count() const { return state_.count; }
  std::uint64_t size_bits() const { return bits_; }
  std::size_t size_bytes() const { return bytes_.size(); }
  std::vector<TsdbPoint> decode() const;

 private:
  GorillaState state_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bits_ = 0;
};

/// Last sample at or before `t`, if one exists within `staleness_ms` of
/// it (0 = unbounded lookback). `points` must be time-sorted.
std::optional<double> tsdb_value_at(const std::vector<TsdbPoint>& points,
                                    std::int64_t t_ms,
                                    std::int64_t staleness_ms = 0);

struct TsdbIncrease {
  double increase = 0.0;        ///< reset-aware counter growth over the window
  std::int64_t covered_ms = 0;  ///< portion of the window with data
};

/// Reset-aware counter increase over the window (t - window_ms, t]. The
/// baseline is the last sample at or before the window start, so tiled
/// windows telescope exactly: summing increase over consecutive windows
/// reproduces v(last) - v(first baseline) when the counter never
/// resets. A decrease between adjacent samples is treated as a counter
/// reset and contributes the post-reset value. Returns nullopt when the
/// window contains no sample and no baseline exists.
std::optional<TsdbIncrease> tsdb_increase(const std::vector<TsdbPoint>& points,
                                          std::int64_t t_ms,
                                          std::int64_t window_ms);

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

struct TsdbConfig {
  std::int64_t scrape_interval_ms = 1000;
  std::size_t raw_chunks = 16;    ///< 256-byte payload chunks per series
  std::size_t mid_chunks = 8;     ///< 10 s downsample ring
  std::size_t coarse_chunks = 8;  ///< 1 m downsample ring
  std::int64_t mid_resolution_ms = 10'000;
  std::int64_t coarse_resolution_ms = 60'000;
  std::size_t max_series = 8192;  ///< further series are counted as dropped
  /// Cardinality budget per metric family: at most this many distinct
  /// series (label sets, bucket spellings included) may share one family
  /// name. Keeps a hostile or runaway label dimension from evicting the
  /// rest of the store; rejected series are accounted in
  /// `dropped_series`. 0 disables the per-family budget.
  std::size_t max_label_sets_per_family = 64;
  MetricsRegistry* registry = nullptr;  ///< nullptr = the global metrics()
};

struct TsdbStats {
  std::size_t series = 0;
  std::uint64_t samples = 0;  ///< raw samples appended over the store's life
  std::uint64_t dropped = 0;  ///< series-budget and non-monotonic drops
  /// Samples rejected because a series budget (global max_series or the
  /// per-family label-cardinality budget) refused to create their
  /// series; a strict subset of `dropped`.
  std::uint64_t dropped_series = 0;
  std::uint64_t resident_bytes = 0;      ///< compressed bytes currently held
  std::uint64_t raw_bytes_written = 0;   ///< cumulative raw-ring payload bytes
  std::uint64_t scrapes = 0;
  std::int64_t first_ms = 0;   ///< timestamp of the first scrape (0 = none)
  std::int64_t latest_ms = 0;  ///< timestamp of the newest scrape
  std::int64_t scrape_interval_ms = 0;
};

/// Per-series descriptor for /series.
struct TsdbSeriesInfo {
  std::string name;
  bool counter = false;  ///< scraped from a Counter (or histogram count/sum)
  std::uint64_t samples = 0;
  std::uint64_t resident_bytes = 0;
  std::int64_t first_ms = 0;
  std::int64_t last_ms = 0;
};

class TsdbStore {
 public:
  explicit TsdbStore(TsdbConfig config = {});
  ~TsdbStore();

  TsdbStore(const TsdbStore&) = delete;
  TsdbStore& operator=(const TsdbStore&) = delete;

  /// Starts the background scraper (idempotent). `interval_ms`
  /// overrides the configured scrape interval when > 0.
  void start(std::int64_t interval_ms = 0);
  void stop();  ///< takes a final scrape, then joins the scraper thread
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once at least one scrape has landed — manually driven stores
  /// (tests, benches with virtual clocks) count as live.
  bool has_data() const { return latest_ms() > 0; }

  /// Samples every instrument in the registry once, at wall-clock now
  /// or at an explicit virtual timestamp. Scrapes are serialized; a
  /// timestamp at or before a series' newest sample is dropped, so the
  /// wall-clock form stamps at least 1 ms after the newest scrape: two
  /// scrapes within one millisecond both land.
  void scrape_once();
  void scrape_once(std::int64_t unix_ms);

  /// All samples of `name` in [from_ms, to_ms], merged across the
  /// raw / 10 s / 1 m rings (coarse points only before the span the
  /// finer ring still covers), time-sorted. Empty if unknown.
  std::vector<TsdbPoint> read_series(std::string_view name,
                                     std::int64_t from_ms,
                                     std::int64_t to_ms) const;

  /// read_series plus the last sample before `from_ms`, when one exists:
  /// the baseline an increase over a window starting at `from_ms`
  /// needs, however old. Decodes only the chunks that can hold these
  /// samples, so the cost follows the window, not the retained history.
  std::vector<TsdbPoint> read_window(std::string_view name,
                                     std::int64_t from_ms,
                                     std::int64_t to_ms) const;

  /// tsdb_value_at over the stored series; staleness defaults to 5
  /// scrape intervals.
  std::optional<double> value_at(std::string_view name, std::int64_t t_ms,
                                 std::int64_t staleness_ms = 0) const;

  /// tsdb_increase over the stored series at time `t_ms`.
  std::optional<TsdbIncrease> increase_over(std::string_view name,
                                            std::int64_t t_ms,
                                            std::int64_t window_ms) const;

  std::vector<std::string> series_names() const;
  std::vector<TsdbSeriesInfo> series_info() const;

  TsdbStats stats() const;
  /// Stats as a JSON object (the CLI splices this into the snapshot).
  std::string stats_json() const;

  std::int64_t first_ms() const {
    return first_ms_.load(std::memory_order_acquire);
  }
  std::int64_t latest_ms() const {
    return latest_ms_.load(std::memory_order_acquire);
  }
  std::int64_t scrape_interval_ms() const {
    return scrape_interval_ms_.load(std::memory_order_relaxed);
  }

 private:
  struct Series;

  Series* find_series(std::string_view name) const;
  void append_sample(const std::string& name, bool counter, std::int64_t t_ms,
                     double value);

  TsdbConfig config_;
  MetricsRegistry* registry_;

  mutable std::mutex series_mutex_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
  /// Distinct series per family name (the part before any `{`), guarded
  /// by series_mutex_ — backs the per-family cardinality budget.
  std::map<std::string, std::size_t, std::less<>> family_counts_;

  std::mutex scrape_mutex_;  ///< serializes manual and thread scrapes
  std::atomic<std::int64_t> first_ms_{0};
  std::atomic<std::int64_t> latest_ms_{0};
  std::atomic<std::int64_t> scrape_interval_ms_{0};
  std::atomic<std::uint64_t> samples_total_{0};
  std::atomic<std::uint64_t> dropped_total_{0};
  std::atomic<std::uint64_t> dropped_series_total_{0};
  std::atomic<std::uint64_t> resident_bits_{0};
  std::atomic<std::uint64_t> raw_bits_{0};
  std::atomic<std::uint64_t> scrapes_{0};

  std::atomic<bool> running_{false};
  std::thread scraper_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
};

/// The process-wide store (scrapes the global metrics() registry).
/// Never started implicitly: callers opt in via start(). Intentionally
/// leaked, like metrics(), so exit paths cannot race teardown.
TsdbStore& tsdb();

}  // namespace failmine::obs
