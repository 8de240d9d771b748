// failmine/stream/watermark.hpp
//
// Watermark-based handling of bounded out-of-order arrival.
//
// Real RAS/Cobalt feeds are only approximately time-ordered: records from
// different daemons arrive skewed by collection latency. The reorderer
// accepts a bound (`max_lateness_seconds`) and buffers arrivals in a
// min-heap keyed by (event time, sequence); a record is released once
// the watermark — the newest event time seen minus the lateness bound —
// strictly passes its own event time. When arrival order deviates from
// event-time order by at most S seconds, a lateness bound of 2*S
// restores the exact total order (two records can arrive swapped while
// their event times are up to 2*S apart), so every order-sensitive
// operator downstream (interruption clustering, rolling windows) sees
// the same stream a batch pass over the sorted log would.
//
// The reorderer owns no records. Each arrival comes with a reference the
// caller chose (the pipeline's router passes the record's batch and row)
// and the heap orders 24-byte {time, sequence, ref} keys; a release
// hands the reference back. The records stay where they arrived, so
// holding one back moves nothing and releasing it copies nothing. With
// lateness 0 the input is promised in order: an arrival is released as
// it arrives and the heap is skipped.
//
// A record arriving with an event time already behind the watermark
// violated the bound. It is counted as late and still released
// immediately (analytics prefer a slightly misordered record over a
// dropped one); exactly-once counting operators are unaffected, windowed
// operators may misbucket it by at most the excess skew.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stream/record.hpp"
#include "util/error.hpp"

namespace failmine::stream {

class WatermarkReorderer {
 public:
  /// The caller's name for an arrival, handed back when it is released.
  using Ref = std::uint64_t;

  explicit WatermarkReorderer(std::int64_t max_lateness_seconds)
      : lateness_(max_lateness_seconds) {
    if (max_lateness_seconds < 0)
      throw failmine::DomainError("watermark lateness must be non-negative");
  }

  /// Feeds one arrival, named by `ref`; only its time and sequence are
  /// read. Invokes `emit(Ref)` zero or more times with the references
  /// whose release the arrival unlocked, in (time, sequence) order.
  template <typename Emit>
  void push(const StreamRecord& record, Ref ref, Emit&& emit) {
    if (!seen_any_ || record.time > max_seen_) {
      max_seen_ = record.time;
      seen_any_ = true;
    }
    const util::UnixSeconds frontier = watermark();
    if (record.time < frontier) ++late_records_;
    if (lateness_ == 0) {
      emit(ref);  // in-order fast path: nothing can overtake
      return;
    }
    heap_.push_back({record.time, record.sequence, ref});
    std::push_heap(heap_.begin(), heap_.end(), ReleasesLater{});
    while (!heap_.empty() && heap_.front().time < frontier) release(emit);
  }

  /// Releases everything still buffered (end of stream).
  template <typename Emit>
  void flush(Emit&& emit) {
    while (!heap_.empty()) release(emit);
  }

  /// Newest event time seen minus the lateness bound (the frontier up to
  /// which the released stream is guaranteed complete and ordered).
  util::UnixSeconds watermark() const {
    return seen_any_ ? max_seen_ - lateness_ : 0;
  }

  util::UnixSeconds newest_seen() const { return seen_any_ ? max_seen_ : 0; }

  /// Seconds of event time currently held back (newest seen minus the
  /// oldest buffered record) — the `stream.watermark_lag_s` gauge.
  std::int64_t lag_seconds() const {
    return heap_.empty() ? 0 : max_seen_ - heap_.front().time;
  }

  std::uint64_t late_records() const { return late_records_; }
  std::size_t buffered() const { return heap_.size(); }
  std::int64_t max_lateness_seconds() const { return lateness_; }

 private:
  /// A held-back record's release key and the caller's reference to it.
  struct Key {
    util::UnixSeconds time;
    std::uint64_t sequence;
    Ref ref;
  };

  struct ReleasesLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// Pops the earliest key and hands its reference downstream.
  template <typename Emit>
  void release(Emit& emit) {
    std::pop_heap(heap_.begin(), heap_.end(), ReleasesLater{});
    const Ref ref = heap_.back().ref;
    heap_.pop_back();
    emit(ref);
  }

  const std::int64_t lateness_;
  std::vector<Key> heap_;  ///< min-heap by (time, sequence)
  util::UnixSeconds max_seen_ = 0;
  bool seen_any_ = false;
  std::uint64_t late_records_ = 0;
};

}  // namespace failmine::stream
