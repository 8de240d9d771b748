// failmine/stream/heavy_hitters.hpp
//
// Space-saving heavy-hitter sketch (Metwally et al.) for the streaming
// concentration analyses.
//
// The paper's takeaway T-B is that a handful of users/projects account
// for most failures. Batch code counts every group exactly; a stream over
// millions of users cannot. The space-saving summary keeps a fixed number
// of monitored keys; an unmonitored arrival evicts the key with the
// smallest count and inherits that count as its over-estimation error.
// Guarantees for a summary of capacity m over total weight n:
//   * every reported count over-estimates: true <= count <= true + error,
//     with error <= n/m;
//   * every key with true weight > n/m is present in the summary —
//     so the batch top-k is a subset of the reported keys whenever the
//     k-th group's weight clears n/m (the superset property the parity
//     tests assert).
// merge() folds summaries from disjoint substreams (pipeline shards): a
// key missing from one side could have accumulated at most that side's
// minimum count, which is added to the error bound; the result is
// truncated back to capacity.
//
// The monitored entries live in one vector ordered as a binary min-heap
// by count, the larger key first on ties, so the root is always the
// eviction victim. A flat open-addressing table maps each key to its heap
// position, and every heap node names its table slot back, so a sift
// updates positions without hashing. A hit adds its weight and sifts the
// entry down; an eviction overwrites the root and restores the heap:
// O(log m) either way, with no allocation once the summary is full.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace failmine::stream {

class SpaceSavingSketch {
 public:
  explicit SpaceSavingSketch(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t weight = 1);

  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< over-estimate of the true weight
    std::uint64_t error = 0;  ///< count - error <= true weight <= count
  };

  /// Monitored keys sorted by count descending (key ascending on ties,
  /// so output is deterministic).
  std::vector<Entry> entries() const;

  /// The `k` heaviest monitored keys.
  std::vector<Entry> top(std::size_t k) const;

  /// Point lookup of one monitored key (nullopt when unmonitored — i.e.
  /// its true weight is at most error_bound()).
  std::optional<Entry> find(std::uint64_t key) const {
    const std::uint32_t slot = slot_of(key);
    if (index_[slot].node == kEmpty) return std::nullopt;
    return heap_[index_[slot].node].entry;
  }

  void merge(const SpaceSavingSketch& other);

  std::uint64_t total_weight() const { return total_weight_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return heap_.size(); }

  /// Worst-case over-estimation of any reported count (n/m, or the
  /// accumulated bound after merges).
  std::uint64_t error_bound() const;

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  struct Node {
    Entry entry;
    std::uint32_t slot = 0;  ///< index_ slot holding this entry's key
  };
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t node = kEmpty;  ///< heap position, kEmpty when free
  };

  /// Fibonacci hash of `key` onto the index: its first probe.
  std::size_t home_of(std::uint64_t key) const;
  /// The slot holding `key`, or the free slot where it would go.
  std::uint32_t slot_of(std::uint64_t key) const;
  void place(std::size_t pos, Node node);
  /// The child of `pos` that evicts first (`pos` must have a child).
  std::size_t first_child(std::size_t pos) const;
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Overwrites the root (the evicted entry) with `node` and restores
  /// the heap.
  void replace_root(Node node);
  void erase_slot(std::uint32_t slot);
  /// Re-heaps `entries` and rebuilds the index from scratch.
  void rebuild(const std::vector<Entry>& entries);

  std::size_t capacity_;
  std::uint64_t total_weight_ = 0;
  std::uint64_t merged_error_floor_ = 0;
  std::vector<Node> heap_;    ///< min-heap: smallest count, larger key
  std::vector<Slot> index_;   ///< linear probing, power-of-two size
  unsigned shift_ = 0;        ///< 64 - log2(index_.size())
};

}  // namespace failmine::stream
