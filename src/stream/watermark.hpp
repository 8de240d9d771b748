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
// The heap orders keys, not records: a buffered record is moved once
// into a slot of an arena (freed slots are reused through a free list),
// and the heap holds 24-byte {time, sequence, slot} keys. Releasing pops
// the key and moves the record out of its slot, so a sift never moves a
// record and a release never copies one.
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
  explicit WatermarkReorderer(std::int64_t max_lateness_seconds)
      : lateness_(max_lateness_seconds) {
    if (max_lateness_seconds < 0)
      throw failmine::DomainError("watermark lateness must be non-negative");
  }

  /// True when the lateness bound is 0: the input is promised in order,
  /// nothing is ever buffered, and every arrival is released as it
  /// arrives. A caller may then keep records where they are and call
  /// observe() on each instead of push().
  bool passes_through() const { return lateness_ == 0; }

  /// The bookkeeping push() does for one arrival, on the record in
  /// place: the newest event time seen and the late count.
  void observe(const StreamRecord& record) {
    if (!seen_any_ || record.time > max_seen_) {
      max_seen_ = record.time;
      seen_any_ = true;
    }
    if (record.time < watermark()) ++late_records_;
  }

  /// Feeds one arrival; invokes `emit(StreamRecord&&)` zero or more times
  /// with records whose release the arrival unlocked, in (time, sequence)
  /// order.
  template <typename Emit>
  void push(StreamRecord&& record, Emit&& emit) {
    observe(record);
    if (passes_through()) {
      emit(std::move(record));  // in-order fast path: nothing can overtake
      return;
    }
    Key key{record.time, record.sequence, 0};
    if (free_.empty()) {
      key.slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(record));
    } else {
      key.slot = free_.back();
      free_.pop_back();
      slots_[key.slot] = std::move(record);
    }
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), ReleasesLater{});
    const util::UnixSeconds frontier = watermark();
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
  /// A buffered record's release key and the arena slot holding it.
  struct Key {
    util::UnixSeconds time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  struct ReleasesLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  /// Pops the earliest key and hands its record downstream.
  template <typename Emit>
  void release(Emit& emit) {
    std::pop_heap(heap_.begin(), heap_.end(), ReleasesLater{});
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    free_.push_back(slot);
    emit(std::move(slots_[slot]));
  }

  const std::int64_t lateness_;
  std::vector<Key> heap_;            ///< min-heap by (time, sequence)
  std::vector<StreamRecord> slots_;  ///< buffered records, by slot
  std::vector<std::uint32_t> free_;  ///< slots free for reuse
  util::UnixSeconds max_seen_ = 0;
  bool seen_any_ = false;
  std::uint64_t late_records_ = 0;
};

}  // namespace failmine::stream
