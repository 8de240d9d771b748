// failmine/obs/tsdb.cpp

#include "tsdb.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "json.hpp"
#include "labels.hpp"

namespace failmine::obs {

namespace {

constexpr std::size_t kPayloadBytes = 256;
constexpr std::uint32_t kPayloadBits = kPayloadBytes * 8;

std::int64_t wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t floor_bucket(std::int64_t t, std::int64_t res) {
  std::int64_t q = t / res;
  if (t % res != 0 && (t < 0) != (res < 0)) --q;
  return q * res;
}

/// Bucket series spelling for a scraped histogram: `le` always leads
/// the block (so prefix scans on `family.bucket{le="` find every label
/// variant), the instrument's own labels follow.
std::string bucket_series_name(const ParsedMetricName& parsed,
                               const std::string& le) {
  std::string out = parsed.family + ".bucket{le=\"" + le + "\"";
  for (const MetricLabel& label : parsed.labels)
    out += "," + label.key + "=\"" + escape_label_value(label.value) + "\"";
  out.push_back('}');
  return out;
}

std::string bucket_series_name(const ParsedMetricName& parsed, double bound) {
  char le[32];
  std::snprintf(le, sizeof(le), "%g", bound);
  return bucket_series_name(parsed, std::string(le));
}

}  // namespace

// ---------------------------------------------------------------------------
// GorillaChunk (plain-byte reference codec)
// ---------------------------------------------------------------------------

void GorillaChunk::append(std::int64_t t_ms, double value) {
  auto put = [this](bool b) {
    if ((bits_ & 7) == 0) bytes_.push_back(0);
    if (b) bytes_[bits_ >> 3] |= static_cast<std::uint8_t>(1u << (7 - (bits_ & 7)));
    ++bits_;
  };
  gorilla_encode(state_, t_ms, std::bit_cast<std::uint64_t>(value), put);
}

std::vector<TsdbPoint> GorillaChunk::decode() const {
  std::vector<TsdbPoint> out;
  out.reserve(state_.count);
  GorillaState st;
  std::uint64_t pos = 0;
  auto get = [&]() {
    const bool b = pos < bits_ &&
                   ((bytes_[pos >> 3] >> (7 - (pos & 7))) & 1u) != 0;
    ++pos;
    return b;
  };
  for (std::uint32_t i = 0; i < state_.count; ++i) {
    std::int64_t t = 0;
    std::uint64_t vb = 0;
    gorilla_decode(st, get, t, vb);
    out.push_back({t, std::bit_cast<double>(vb)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pure range helpers
// ---------------------------------------------------------------------------

std::optional<double> tsdb_value_at(const std::vector<TsdbPoint>& points,
                                    std::int64_t t_ms,
                                    std::int64_t staleness_ms) {
  auto it = std::upper_bound(
      points.begin(), points.end(), t_ms,
      [](std::int64_t t, const TsdbPoint& p) { return t < p.t_ms; });
  if (it == points.begin()) return std::nullopt;
  const TsdbPoint& p = *(it - 1);
  if (staleness_ms > 0 && t_ms - p.t_ms > staleness_ms) return std::nullopt;
  return p.value;
}

std::optional<TsdbIncrease> tsdb_increase(const std::vector<TsdbPoint>& points,
                                          std::int64_t t_ms,
                                          std::int64_t window_ms) {
  const std::int64_t start = t_ms - window_ms;
  auto after = [&](std::int64_t t) {
    return static_cast<std::size_t>(
        std::upper_bound(points.begin(), points.end(), t,
                         [](std::int64_t x, const TsdbPoint& p) {
                           return x < p.t_ms;
                         }) -
        points.begin());
  };
  const std::size_t first_in = after(start);  // first index with t > start
  const std::size_t end = after(t_ms);        // first index with t > t_ms
  if (end == 0) return std::nullopt;          // nothing at or before t
  if (end <= first_in) {
    // No samples inside the window. With a baseline the series is known
    // flat through it; without one there is nothing to say.
    if (first_in == 0) return std::nullopt;
    return TsdbIncrease{0.0, window_ms};
  }
  std::size_t i0 = 0;
  std::int64_t covered = 0;
  if (first_in > 0) {
    i0 = first_in - 1;  // baseline sample at or before the window start
    covered = window_ms;
  } else {
    i0 = first_in;
    covered = t_ms - points[i0].t_ms;
  }
  double inc = 0.0;
  double prev = points[i0].value;
  for (std::size_t i = i0 + 1; i < end; ++i) {
    const double v = points[i].value;
    inc += v >= prev ? v - prev : v;  // drop = counter reset, restart at v
    prev = v;
  }
  return TsdbIncrease{inc, covered};
}

// ---------------------------------------------------------------------------
// Series internals
// ---------------------------------------------------------------------------

struct TsdbStore::Series {
  /// Reader-visible chunk: every field a racing reader touches is an
  /// atomic (payload included), so a torn read is impossible at the
  /// byte level; the per-series seqlock generation makes the multi-word
  /// copy consistent.
  struct Chunk {
    std::atomic<std::int64_t> t_first{0};
    std::atomic<std::int64_t> t_last{0};
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint32_t> bits{0};
    std::array<std::atomic<std::uint8_t>, kPayloadBytes> payload{};
    GorillaState enc;  // writer-only
  };

  struct Ring {
    explicit Ring(std::size_t n) : chunks(n) {}
    std::vector<Chunk> chunks;  // sized once, never reallocated
    std::atomic<std::uint64_t> head{0};  // logical index of the open chunk
  };

  struct DsState {
    std::int64_t bucket = std::numeric_limits<std::int64_t>::min();
    std::int64_t last_t = 0;
    std::uint64_t last_bits = 0;
    bool any = false;
  };

  struct ChunkCopy {
    std::int64_t t_first = 0;
    std::int64_t t_last = 0;
    std::uint32_t count = 0;
    std::uint32_t bits = 0;
    std::array<std::uint8_t, kPayloadBytes> payload;
  };

  Series(std::string series_name, bool is_counter, const TsdbConfig& cfg)
      : name(std::move(series_name)),
        counter(is_counter),
        raw(cfg.raw_chunks),
        mid(cfg.mid_chunks),
        coarse(cfg.coarse_chunks),
        mid_res(cfg.mid_resolution_ms),
        coarse_res(cfg.coarse_resolution_ms) {}

  // -- writer side (serialized by the store's scrape mutex) -----------------

  /// Appends into a ring, sealing (and recycling the oldest chunk of)
  /// the ring when the open chunk cannot fit a worst-case sample.
  /// Returns the payload bits added; `resident_delta_bits` additionally
  /// accounts bits evicted by recycling.
  static std::uint32_t ring_append(Ring& r, std::int64_t t,
                                   std::uint64_t vbits,
                                   std::int64_t& resident_delta_bits) {
    std::uint64_t head = r.head.load(std::memory_order_relaxed);
    Chunk* c = &r.chunks[head % r.chunks.size()];
    if (c->count.load(std::memory_order_relaxed) > 0 &&
        c->bits.load(std::memory_order_relaxed) + kGorillaMaxSampleBits >
            kPayloadBits) {
      ++head;
      r.head.store(head, std::memory_order_relaxed);
      c = &r.chunks[head % r.chunks.size()];
      const std::uint32_t old_bits = c->bits.load(std::memory_order_relaxed);
      resident_delta_bits -= old_bits;
      for (std::size_t i = 0; i < (old_bits + 7u) / 8u; ++i) {
        c->payload[i].store(0, std::memory_order_relaxed);
      }
      c->count.store(0, std::memory_order_relaxed);
      c->bits.store(0, std::memory_order_relaxed);
      c->t_first.store(0, std::memory_order_relaxed);
      c->t_last.store(0, std::memory_order_relaxed);
      c->enc = GorillaState{};
    }
    std::uint32_t bits = c->bits.load(std::memory_order_relaxed);
    const std::uint32_t before = bits;
    auto put = [&](bool b) {
      if (b) {
        auto& byte = c->payload[bits >> 3];
        byte.store(static_cast<std::uint8_t>(
                       byte.load(std::memory_order_relaxed) |
                       (1u << (7 - (bits & 7)))),
                   std::memory_order_relaxed);
      }
      ++bits;
    };
    const bool first = c->enc.count == 0;
    gorilla_encode(c->enc, t, vbits, put);
    c->bits.store(bits, std::memory_order_relaxed);
    if (first) c->t_first.store(t, std::memory_order_relaxed);
    c->count.store(c->enc.count, std::memory_order_relaxed);
    c->t_last.store(t, std::memory_order_relaxed);
    resident_delta_bits += bits - before;
    return bits - before;
  }

  void ds_roll(Ring& r, DsState& st, std::int64_t res, std::int64_t t,
               std::uint64_t vbits, std::int64_t& resident_delta_bits) {
    const std::int64_t b = floor_bucket(t, res);
    if (st.any && b != st.bucket) {
      ring_append(r, st.last_t, st.last_bits, resident_delta_bits);
    }
    st.bucket = b;
    st.any = true;
    st.last_t = t;
    st.last_bits = vbits;
  }

  /// Single-writer append. Returns false (dropping the sample) when the
  /// timestamp does not advance.
  bool append(std::int64_t t, double value, std::int64_t& resident_delta_bits,
              std::uint32_t& raw_bits_added) {
    if (t <= last_raw_t) return false;
    const std::uint64_t vbits = std::bit_cast<std::uint64_t>(value);
    gen.fetch_add(1, std::memory_order_acquire);  // odd: write in flight
    raw_bits_added = ring_append(raw, t, vbits, resident_delta_bits);
    ds_roll(mid, mid_state, mid_res, t, vbits, resident_delta_bits);
    ds_roll(coarse, coarse_state, coarse_res, t, vbits, resident_delta_bits);
    gen.fetch_add(1, std::memory_order_release);  // even: quiescent
    last_raw_t = t;
    if (first_t.load(std::memory_order_relaxed) == 0) {
      first_t.store(t, std::memory_order_relaxed);
    }
    last_t.store(t, std::memory_order_relaxed);
    samples.fetch_add(1, std::memory_order_relaxed);
    resident_bits.fetch_add(
        static_cast<std::uint64_t>(resident_delta_bits),
        std::memory_order_relaxed);  // delta may be "negative" (wraps back)
    raw_bits_written.fetch_add(raw_bits_added, std::memory_order_relaxed);
    return true;
  }

  // -- reader side ----------------------------------------------------------

  static void copy_ring(const Ring& r, std::vector<ChunkCopy>& out) {
    out.clear();
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    const std::uint64_t n = r.chunks.size();
    const std::uint64_t lo = head + 1 >= n ? head + 1 - n : 0;
    for (std::uint64_t i = lo; i <= head; ++i) {
      const Chunk& c = r.chunks[i % n];
      const std::uint32_t cnt = c.count.load(std::memory_order_relaxed);
      if (cnt == 0) continue;
      ChunkCopy cc;
      cc.t_first = c.t_first.load(std::memory_order_relaxed);
      cc.t_last = c.t_last.load(std::memory_order_relaxed);
      cc.count = cnt;
      cc.bits = std::min(c.bits.load(std::memory_order_relaxed), kPayloadBits);
      for (std::size_t b = 0; b < (cc.bits + 7u) / 8u; ++b) {
        cc.payload[b] = c.payload[b].load(std::memory_order_relaxed);
      }
      out.push_back(cc);
    }
  }

  void snapshot_rings(std::vector<ChunkCopy>& raw_c,
                      std::vector<ChunkCopy>& mid_c,
                      std::vector<ChunkCopy>& coarse_c) const {
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const std::uint64_t g1 = gen.load(std::memory_order_acquire);
      if (g1 & 1) {
        std::this_thread::yield();
        continue;
      }
      copy_ring(raw, raw_c);
      copy_ring(mid, mid_c);
      copy_ring(coarse, coarse_c);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (gen.load(std::memory_order_relaxed) == g1) return;
    }
    // Writer livelock cannot happen at scrape rates; if we ever fall
    // through, the bounds-checked decoder below still cannot misbehave.
  }

  static void decode_chunk(const ChunkCopy& c, std::vector<TsdbPoint>& out) {
    GorillaState st;
    std::uint32_t pos = 0;
    auto get = [&]() {
      const bool b = pos < c.bits &&
                     ((c.payload[pos >> 3] >> (7 - (pos & 7))) & 1u) != 0;
      ++pos;
      return b;
    };
    for (std::uint32_t i = 0; i < c.count && pos < c.bits; ++i) {
      std::int64_t t = 0;
      std::uint64_t vb = 0;
      gorilla_decode(st, get, t, vb);
      if (pos > c.bits) break;  // torn-copy guard; consistent copies never hit
      out.push_back({t, std::bit_cast<double>(vb)});
    }
  }

  /// Samples in [from, to] merged across the rings, plus (with
  /// `baseline`) the last sample before `from`. Only chunks that can
  /// hold one of them are decoded: those overlapping [from, to] and,
  /// per ring, the newest one that ends before `from`.
  std::vector<TsdbPoint> read(std::int64_t from, std::int64_t to,
                              bool baseline) const {
    std::vector<ChunkCopy> raw_c, mid_c, coarse_c;
    snapshot_rings(raw_c, mid_c, coarse_c);
    const auto decode = [&](const std::vector<ChunkCopy>& chunks,
                            std::vector<TsdbPoint>& pts) {
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        const bool overlaps = chunks[i].t_last >= from && chunks[i].t_first <= to;
        const bool last_before =
            baseline && chunks[i].t_last < from &&
            (i + 1 == chunks.size() || chunks[i + 1].t_last >= from);
        if (overlaps || last_before) decode_chunk(chunks[i], pts);
      }
    };
    // Ring coverage comes from chunk metadata, so skipped chunks still
    // count. A coarser ring only fills in before the finer ones start,
    // so it is decoded only when the read reaches back that far.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t raw_start = raw_c.empty() ? kMax : raw_c.front().t_first;
    const std::int64_t mid_start =
        std::min(raw_start, mid_c.empty() ? kMax : mid_c.front().t_first);
    std::vector<TsdbPoint> raw_p, mid_p, coarse_p;
    decode(raw_c, raw_p);
    if (from <= raw_start) decode(mid_c, mid_p);
    if (from <= mid_start) decode(coarse_c, coarse_p);
    std::vector<TsdbPoint> out;
    out.reserve(raw_p.size() + mid_p.size() + coarse_p.size());
    for (const auto& p : coarse_p) {
      if (p.t_ms < mid_start && p.t_ms <= to) out.push_back(p);
    }
    for (const auto& p : mid_p) {
      if (p.t_ms < raw_start && p.t_ms <= to) out.push_back(p);
    }
    for (const auto& p : raw_p) {
      if (p.t_ms <= to) out.push_back(p);
    }
    // Drop what precedes `from`, keeping the last such sample as the
    // baseline when asked.
    auto first = std::lower_bound(
        out.begin(), out.end(), from,
        [](const TsdbPoint& p, std::int64_t t) { return p.t_ms < t; });
    if (baseline && first != out.begin()) --first;
    out.erase(out.begin(), first);
    return out;
  }

  std::string name;
  bool counter;
  std::atomic<std::uint64_t> gen{0};
  Ring raw, mid, coarse;
  std::int64_t mid_res, coarse_res;
  DsState mid_state, coarse_state;
  std::int64_t last_raw_t = std::numeric_limits<std::int64_t>::min();
  std::atomic<std::int64_t> first_t{0};
  std::atomic<std::int64_t> last_t{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> resident_bits{0};
  std::atomic<std::uint64_t> raw_bits_written{0};
};

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

TsdbStore::TsdbStore(TsdbConfig config)
    : config_(config),
      registry_(config.registry != nullptr ? config.registry : &metrics()) {
  if (config_.scrape_interval_ms <= 0) config_.scrape_interval_ms = 1000;
  if (config_.raw_chunks == 0) config_.raw_chunks = 1;
  if (config_.mid_chunks == 0) config_.mid_chunks = 1;
  if (config_.coarse_chunks == 0) config_.coarse_chunks = 1;
  scrape_interval_ms_.store(config_.scrape_interval_ms,
                            std::memory_order_relaxed);
}

TsdbStore::~TsdbStore() {
  if (running()) stop();
}

void TsdbStore::start(std::int64_t interval_ms) {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  if (interval_ms > 0) config_.scrape_interval_ms = interval_ms;
  scrape_interval_ms_.store(config_.scrape_interval_ms,
                            std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    stop_requested_ = false;
  }
  scrape_once();
  scraper_ = std::thread([this] {
    (void)::pthread_setname_np(::pthread_self(), "fm.tsdb");
    const auto interval =
        std::chrono::milliseconds(config_.scrape_interval_ms);
    std::unique_lock<std::mutex> lk(wake_mutex_);
    while (!stop_requested_) {
      if (wake_.wait_for(lk, interval, [this] { return stop_requested_; })) {
        break;
      }
      lk.unlock();
      scrape_once();
      lk.lock();
    }
  });
}

void TsdbStore::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (scraper_.joinable()) scraper_.join();
  scrape_once();  // capture the end state
}

void TsdbStore::scrape_once() {
  scrape_once(std::max(wall_ms(), latest_ms() + 1));
}

void TsdbStore::scrape_once(std::int64_t unix_ms) {
  std::lock_guard<std::mutex> lock(scrape_mutex_);
  const MetricsSample s = registry_->sample();
  for (const auto& [name, v] : s.counters) {
    append_sample(name, true, unix_ms, static_cast<double>(v));
  }
  for (const auto& [name, v] : s.gauges) {
    append_sample(name, false, unix_ms, v);
  }
  for (const auto& [name, h] : s.histograms) {
    // A labeled histogram keeps its labels on every sub-series:
    // `family.count{twin="t3"}`, `family.bucket{le="10",twin="t3"}`.
    ParsedMetricName parsed;
    if (!parse_metric_name(name, parsed)) {
      parsed.family = name;
      parsed.labels.clear();
    }
    const std::string block = label_block(parsed.labels);
    append_sample(parsed.family + ".count" + block, true, unix_ms,
                  static_cast<double>(h.count));
    append_sample(parsed.family + ".sum" + block, true, unix_ms, h.sum);
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      append_sample(bucket_series_name(parsed, h.upper_bounds[i]), true,
                    unix_ms, static_cast<double>(h.buckets[i]));
    }
    append_sample(bucket_series_name(parsed, std::string("+Inf")), true,
                  unix_ms, static_cast<double>(h.buckets.back()));
  }
  if (first_ms_.load(std::memory_order_relaxed) == 0) {
    first_ms_.store(unix_ms, std::memory_order_release);
  }
  if (unix_ms > latest_ms_.load(std::memory_order_relaxed)) {
    latest_ms_.store(unix_ms, std::memory_order_release);
  }
  scrapes_.fetch_add(1, std::memory_order_relaxed);

  // Self-metrics land in the scraped registry, so the store's own cost
  // shows up as history on the next scrape.
  const TsdbStats st = stats();
  registry_->gauge("tsdb.series").set(static_cast<double>(st.series));
  registry_->gauge("tsdb.bytes").set(static_cast<double>(st.resident_bytes));
  Counter& samples_c = registry_->counter("tsdb.samples");
  if (st.samples > samples_c.value()) samples_c.add(st.samples - samples_c.value());
  Counter& dropped_c = registry_->counter("tsdb.dropped");
  if (st.dropped > dropped_c.value()) dropped_c.add(st.dropped - dropped_c.value());
  Counter& dropped_series_c = registry_->counter("tsdb.dropped_series");
  if (st.dropped_series > dropped_series_c.value())
    dropped_series_c.add(st.dropped_series - dropped_series_c.value());
}

void TsdbStore::append_sample(const std::string& name, bool counter,
                              std::int64_t t_ms, double value) {
  bool budget_dropped = false;
  Series* series = nullptr;
  {
    std::lock_guard<std::mutex> lock(series_mutex_);
    auto it = series_.find(name);
    if (it != series_.end()) {
      series = it->second.get();
    } else if (series_.size() >= config_.max_series) {
      budget_dropped = true;
    } else {
      // Per-family cardinality budget: all label sets (bucket spellings
      // included) of one family share a fixed series allowance.
      const std::string_view family =
          std::string_view(name).substr(0, name.find('{'));
      auto fit = family_counts_.find(family);
      const std::size_t in_family = fit == family_counts_.end() ? 0 : fit->second;
      if (config_.max_label_sets_per_family > 0 &&
          in_family >= config_.max_label_sets_per_family) {
        budget_dropped = true;
      } else {
        auto owned = std::make_unique<Series>(name, counter, config_);
        series = owned.get();
        series_.emplace(name, std::move(owned));
        if (fit == family_counts_.end()) {
          family_counts_.emplace(std::string(family), 1);
        } else {
          ++fit->second;
        }
      }
    }
  }
  if (budget_dropped) {
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
    dropped_series_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::int64_t resident_delta = 0;
  std::uint32_t raw_bits = 0;
  if (series->append(t_ms, value, resident_delta, raw_bits)) {
    samples_total_.fetch_add(1, std::memory_order_relaxed);
    resident_bits_.fetch_add(static_cast<std::uint64_t>(resident_delta),
                             std::memory_order_relaxed);
    raw_bits_.fetch_add(raw_bits, std::memory_order_relaxed);
  } else {
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

TsdbStore::Series* TsdbStore::find_series(std::string_view name) const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::vector<TsdbPoint> TsdbStore::read_series(std::string_view name,
                                              std::int64_t from_ms,
                                              std::int64_t to_ms) const {
  const Series* s = find_series(name);
  if (s == nullptr) return {};
  return s->read(from_ms, to_ms, /*baseline=*/false);
}

std::vector<TsdbPoint> TsdbStore::read_window(std::string_view name,
                                              std::int64_t from_ms,
                                              std::int64_t to_ms) const {
  const Series* s = find_series(name);
  if (s == nullptr) return {};
  return s->read(from_ms, to_ms, /*baseline=*/true);
}

std::optional<double> TsdbStore::value_at(std::string_view name,
                                          std::int64_t t_ms,
                                          std::int64_t staleness_ms) const {
  if (staleness_ms <= 0) staleness_ms = 5 * scrape_interval_ms();
  const auto pts =
      read_series(name, t_ms - staleness_ms, t_ms);
  return tsdb_value_at(pts, t_ms, staleness_ms);
}

std::optional<TsdbIncrease> TsdbStore::increase_over(
    std::string_view name, std::int64_t t_ms, std::int64_t window_ms) const {
  return tsdb_increase(read_window(name, t_ms - window_ms, t_ms), t_ms,
                       window_ms);
}

std::vector<std::string> TsdbStore::series_names() const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::vector<TsdbSeriesInfo> TsdbStore::series_info() const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  std::vector<TsdbSeriesInfo> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    TsdbSeriesInfo info;
    info.name = name;
    info.counter = s->counter;
    info.samples = s->samples.load(std::memory_order_relaxed);
    info.resident_bytes =
        (s->resident_bits.load(std::memory_order_relaxed) + 7) / 8;
    info.first_ms = s->first_t.load(std::memory_order_relaxed);
    info.last_ms = s->last_t.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

TsdbStats TsdbStore::stats() const {
  TsdbStats st;
  {
    std::lock_guard<std::mutex> lock(series_mutex_);
    st.series = series_.size();
  }
  st.samples = samples_total_.load(std::memory_order_relaxed);
  st.dropped = dropped_total_.load(std::memory_order_relaxed);
  st.dropped_series = dropped_series_total_.load(std::memory_order_relaxed);
  st.resident_bytes = (resident_bits_.load(std::memory_order_relaxed) + 7) / 8;
  st.raw_bytes_written = (raw_bits_.load(std::memory_order_relaxed) + 7) / 8;
  st.scrapes = scrapes_.load(std::memory_order_relaxed);
  st.first_ms = first_ms();
  st.latest_ms = latest_ms();
  st.scrape_interval_ms = scrape_interval_ms();
  return st;
}

std::string TsdbStore::stats_json() const {
  const TsdbStats st = stats();
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"series\":%zu,\"samples\":%" PRIu64 ",\"dropped\":%" PRIu64
                ",\"dropped_series\":%" PRIu64
                ",\"resident_bytes\":%" PRIu64 ",\"raw_bytes_written\":%" PRIu64
                ",\"scrapes\":%" PRIu64
                ",\"scrape_interval_ms\":%" PRId64 ",\"first_unix_ms\":%" PRId64
                ",\"latest_unix_ms\":%" PRId64 "}",
                st.series, st.samples, st.dropped, st.dropped_series,
                st.resident_bytes,
                st.raw_bytes_written, st.scrapes, st.scrape_interval_ms,
                st.first_ms, st.latest_ms);
  return buf;
}

TsdbStore& tsdb() {
  static TsdbStore* store = new TsdbStore();  // leaked like metrics()
  return *store;
}

}  // namespace failmine::obs
