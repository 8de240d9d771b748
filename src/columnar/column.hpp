// failmine/columnar/column.hpp
//
// Timestamp column with delta compression.
//
// Log timestamps are 64-bit Unix seconds, but both sorted logs (jobs by
// start time, RAS by timestamp) advance by small steps, so a sealed
// column stores an i64 base plus one u32 forward delta per row — half
// the bytes and exactly reconstructible. seal() falls back to the plain
// i64 representation when the column is not non-decreasing or a step
// exceeds 32 bits, so the encoding is lossless for any input.
//
// While building, values accumulate in the plain representation;
// sequential reads go through for_each(), which decodes deltas with one
// running add per row (an autovectorizable prefix walk the column
// drivers fuse into their scan loops).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace failmine::columnar {

class TimestampColumn {
 public:
  TimestampColumn() = default;

  /// Takes ownership of already-collected values (unsealed).
  explicit TimestampColumn(std::vector<util::UnixSeconds> values)
      : plain_(std::move(values)) {}

  void reserve(std::size_t n) { plain_.reserve(n); }

  void push_back(util::UnixSeconds t) {
    if (sealed_)
      throw failmine::DomainError("push_back on a sealed timestamp column");
    plain_.push_back(t);
  }

  /// Appends another unsealed column (chunk merge).
  void append(const TimestampColumn& other) {
    if (sealed_ || other.sealed_)
      throw failmine::DomainError("append on a sealed timestamp column");
    plain_.insert(plain_.end(), other.plain_.begin(), other.plain_.end());
  }

  std::size_t size() const {
    // A sealed column may still be plain (fallback) — pick by encoding,
    // not by sealed state.
    return delta_encoded() ? deltas_.size() : plain_.size();
  }
  bool empty() const { return size() == 0; }

  /// Switches to the delta representation when the values are
  /// non-decreasing with 32-bit steps; otherwise keeps them plain.
  void seal() {
    if (sealed_) return;
    sealed_ = true;
    bool delta_ok = true;
    for (std::size_t i = 1; i < plain_.size(); ++i) {
      const std::int64_t step = plain_[i] - plain_[i - 1];
      if (step < 0 || step > static_cast<std::int64_t>(UINT32_MAX)) {
        delta_ok = false;
        break;
      }
    }
    if (!delta_ok || plain_.empty()) {
      plain_.shrink_to_fit();
      return;
    }
    base_ = plain_.front();
    deltas_.resize(plain_.size());
    deltas_[0] = 0;
    for (std::size_t i = 1; i < plain_.size(); ++i)
      deltas_[i] = static_cast<std::uint32_t>(plain_[i] - plain_[i - 1]);
    plain_.clear();
    plain_.shrink_to_fit();
  }

  bool sealed() const { return sealed_; }
  bool delta_encoded() const { return sealed_ && !deltas_.empty(); }

  /// Value at row i. O(1) plain, O(i) delta — use for_each for scans.
  util::UnixSeconds at(std::size_t i) const {
    if (!delta_encoded()) return plain_.at(i);
    if (i >= deltas_.size())
      throw failmine::DomainError("timestamp column index out of range");
    util::UnixSeconds t = base_;
    for (std::size_t k = 1; k <= i; ++k) t += deltas_[k];
    return t;
  }

  /// Sequential decode: fn(row, value) for every row in order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    if (!delta_encoded()) {
      for (std::size_t i = 0; i < plain_.size(); ++i) fn(i, plain_[i]);
      return;
    }
    util::UnixSeconds t = base_;
    for (std::size_t i = 0; i < deltas_.size(); ++i) {
      t += deltas_[i];
      fn(i, t);
    }
  }

  /// Full materialization (tests, row reconstruction at scale).
  std::vector<util::UnixSeconds> decode_all() const {
    std::vector<util::UnixSeconds> out(size());
    for_each([&](std::size_t i, util::UnixSeconds t) { out[i] = t; });
    return out;
  }

  util::UnixSeconds front() const { return at(0); }
  util::UnixSeconds back() const {
    if (empty()) throw failmine::DomainError("back() on empty column");
    if (!delta_encoded()) return plain_.back();
    util::UnixSeconds t = base_;
    for (std::size_t i = 1; i < deltas_.size(); ++i) t += deltas_[i];
    return t;
  }

  std::size_t bytes() const {
    return plain_.capacity() * sizeof(util::UnixSeconds) +
           deltas_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<util::UnixSeconds> plain_;
  util::UnixSeconds base_ = 0;
  std::vector<std::uint32_t> deltas_;
  bool sealed_ = false;
};

}  // namespace failmine::columnar
