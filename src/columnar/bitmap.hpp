// failmine/columnar/bitmap.hpp
//
// Dense bitmap index over row numbers: one bit per row, 64 rows per
// word. The columnar tables precompute bitmaps for the hot predicates
// (job failed, RAS severity) at seal time, so a filter tests one bit per
// row and a count is a popcount loop.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace failmine::columnar {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t size) { resize(size); }

  /// Resizes to `size` bits, all clear.
  void resize(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  std::size_t size() const { return size_; }

  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits (autovectorizable popcount loop).
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : words_) total += std::popcount(w);
    return total;
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

  std::size_t bytes() const { return words_.capacity() * sizeof(std::uint64_t); }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace failmine::columnar
