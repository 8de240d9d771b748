// failmine/stream/ring_buffer.hpp
//
// Bounded multi-producer / single-consumer queue of batches with
// pluggable backpressure.
//
// The pipeline's one queue: the ingest ring (producers push record
// batches, the router thread consumes them) and every shard queue (the
// router pushes row slices, one shard worker consumes them). When the
// buffer is full the configured BackpressurePolicy decides what happens —
// kBlock parks the producer until space frees up (lossless; the policy
// the parity tests, the shard queues and the throughput bench run
// under), kDropNewest rejects what does not fit and counts it (lossy but
// non-blocking; the right choice when the producer is a real-time feed
// that must not stall).
//
// Storage is a FIFO of the pushed batches themselves, so a batch crosses
// the buffer without its values moving: push_batch appends the caller's
// batch whole (one larger than the capacity enters in capacity-sized
// pieces), and pop_batch hands the front batch over whole when the
// caller's batch is empty and the front one fits under `max`; otherwise
// it moves values out of the front batch. push() appends one value to
// the back batch. capacity() and size() count values, not batches. The
// mutex/condvar pair keeps the implementation obviously correct — one
// lock per batch keeps its cost far below the per-record analysis cost.
//
// A batch is std::vector<T> unless the second template argument names
// another type; such a type provides size() and a move_values() overload
// (found by argument-dependent lookup) with the meaning of the vector
// one below. The pipeline's shard queues carry row slices of shared
// record batches this way.
//
// A popped value keeps counting against the capacity until the consumer
// release()s it, so the capacity bounds what the consumer is still
// working on as well as what is queued: the pipeline's router releases a
// batch once the shards have freed it, and a shard worker releases a
// slice once it has applied it. A consumer that released values early
// and holds them again counts them back with reacquire().

#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace failmine::stream {

/// What a full buffer does to an incoming record.
enum class BackpressurePolicy {
  kBlock,       ///< producer waits for space (no loss)
  kDropNewest,  ///< incoming record is discarded and counted
};

/// "block" / "drop".
inline const char* backpressure_policy_name(BackpressurePolicy policy) {
  return policy == BackpressurePolicy::kBlock ? "block" : "drop";
}

/// Moves values [begin, end) of `from` onto the end of `to`; the values
/// left in `from` are moved-from. RingBuffer splits and joins batches
/// only through this call.
template <typename T>
void move_values(std::vector<T>& to, std::vector<T>& from, std::size_t begin,
                 std::size_t end) {
  to.insert(to.end(),
            std::make_move_iterator(from.begin() +
                                    static_cast<std::ptrdiff_t>(begin)),
            std::make_move_iterator(from.begin() +
                                    static_cast<std::ptrdiff_t>(end)));
}

template <typename T, typename Batch = std::vector<T>>
class RingBuffer {
 public:
  RingBuffer(std::size_t capacity, BackpressurePolicy policy)
      : policy_(policy), capacity_(capacity) {
    if (capacity == 0)
      throw failmine::DomainError("RingBuffer capacity must be positive");
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  /// Publishes occupied() to `gauge` whenever it changes (relaxed
  /// store; nullptr disables). The gauge is not owned and must outlive
  /// the buffer — registry instruments do.
  void set_occupancy_gauge(obs::Gauge* gauge) {
    std::lock_guard<std::mutex> lock(mutex_);
    occupancy_gauge_ = gauge;
    publish_occupancy();
  }

  /// Enqueues one value at the end of the back batch. Returns false —
  /// counting the value as dropped — if the buffer was full under
  /// kDropNewest or is closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!wait_for_space(lock, 1)) {
      ++dropped_;
      return false;
    }
    // A front batch the consumer has started on does not grow, so its
    // moved-from prefix is freed once the rest is popped.
    if (batches_.empty() || (batches_.size() == 1 && head_ > 0))
      batches_.emplace_back();
    batches_.back().push_back(std::move(value));
    ++size_;
    ++pushed_;
    publish_occupancy();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Enqueues a batch whole once it fits (kBlock waits for the space;
  /// one larger than the capacity enters in capacity-sized pieces).
  /// Under kDropNewest the prefix that fits is kept. Returns how many
  /// values were accepted; every value not accepted is counted as
  /// dropped.
  std::size_t push_batch(Batch&& values) {
    const std::size_t offered = values.size();
    std::size_t accepted = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (accepted < offered) {
      const std::size_t piece = std::min(offered - accepted, capacity_);
      if (!wait_for_space(lock, piece)) {
        const std::size_t fit = closed_ ? 0 : room();
        if (fit > 0) place(values, accepted, accepted + fit);
        accepted += fit;
        break;
      }
      place(values, accepted, accepted + piece);
      accepted += piece;
    }
    dropped_ += offered - accepted;
    publish_occupancy();
    lock.unlock();
    if (accepted > 0) not_empty_.notify_one();
    values = Batch();
    return accepted;
  }

  /// Dequeues up to `max` values of the front batch, blocking until at
  /// least one is available or the buffer is closed and drained. An
  /// empty `out` takes the front batch whole when it fits under `max`;
  /// otherwise values are moved onto the end of `out`. Returns the
  /// number popped (0 means closed-and-empty); their space stays taken
  /// until release().
  std::size_t pop_batch(Batch& out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return 0;
    Batch& front = batches_.front();
    std::size_t n = 0;
    if (out.size() == 0 && head_ == 0 && front.size() <= max) {
      n = front.size();
      out = std::move(front);
      drop_front();
    } else {
      n = std::min(max, front.size() - head_);
      move_values(out, front, head_, head_ + n);
      head_ += n;
      if (head_ == front.size()) drop_front();
    }
    size_ -= n;
    unreleased_ += n;
    publish_occupancy();
    return n;
  }

  /// Returns the space of `n` popped values to producers.
  void release(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      unreleased_ -= n;
      publish_occupancy();
    }
    not_full_.notify_all();
  }

  /// Counts `n` released values against the capacity again, without
  /// waiting: producers wait until release() brings occupied() back
  /// under the capacity.
  void reacquire(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    unreleased_ += n;
    publish_occupancy();
  }

  /// No further pushes are accepted; blocked producers wake and fail.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Values queued (not batches).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  /// Values counted against the capacity: the queued ones and those
  /// popped and not yet released.
  std::size_t occupied() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_ + unreleased_;
  }

  std::size_t capacity() const { return capacity_; }

  /// Values accepted / rejected over the buffer's lifetime.
  std::uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  /// Returns true when `n` more values fit (lock held); callers account
  /// for drops.
  bool wait_for_space(std::unique_lock<std::mutex>& lock, std::size_t n) {
    if (policy_ == BackpressurePolicy::kBlock) {
      // About to sleep until the consumer drains: wake it now, because a
      // batched push may have filled the buffer without its end-of-batch
      // notify having run yet (deferring this wakeup deadlocks both sides).
      if (n > room()) not_empty_.notify_one();
      not_full_.wait(lock, [&] { return n <= room() || closed_; });
      return !closed_;  // push-after-close fails even if space opened up
    }
    return !closed_ && n <= room();
  }

  /// Values that still fit (lock held); reacquire() may have taken more
  /// than the capacity.
  std::size_t room() const {
    return capacity_ - std::min(capacity_, size_ + unreleased_);
  }

  /// Queues values [begin, end) of `values`: the batch itself when that
  /// is all of it, else a piece moved out of it.
  void place(Batch& values, std::size_t begin, std::size_t end) {
    if (begin == 0 && end == values.size()) {
      batches_.push_back(std::move(values));
    } else {
      Batch piece;
      move_values(piece, values, begin, end);
      batches_.push_back(std::move(piece));
    }
    size_ += end - begin;
    pushed_ += end - begin;
  }

  /// Frees the front batch, all of it popped.
  void drop_front() {
    batches_.pop_front();
    head_ = 0;
  }

  void publish_occupancy() {  // lock held
    if (occupancy_gauge_ != nullptr)
      occupancy_gauge_->set(static_cast<double>(size_ + unreleased_));
  }

  const BackpressurePolicy policy_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Batch> batches_;  ///< FIFO; values before head_ are popped
  std::size_t head_ = 0;      ///< values already moved out of the front
  std::size_t size_ = 0;      ///< values queued
  std::size_t unreleased_ = 0;  ///< values popped, space not yet released
  bool closed_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t dropped_ = 0;
  obs::Gauge* occupancy_gauge_ = nullptr;
};

}  // namespace failmine::stream
