#include "stream/heavy_hitters.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace failmine::stream {

namespace {

/// Heap order: a lighter count first, the larger key first on ties, so
/// the root is the entry an unmonitored arrival evicts.
bool evicts_first(const SpaceSavingSketch::Entry& a,
                  const SpaceSavingSketch::Entry& b) {
  // Bitwise, not short-circuit: one flag, no branch to mispredict.
  return (a.count < b.count) | ((a.count == b.count) & (a.key > b.key));
}

/// Report order: count descending, key ascending on ties.
bool heavier(const SpaceSavingSketch::Entry& a,
             const SpaceSavingSketch::Entry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

}  // namespace

SpaceSavingSketch::SpaceSavingSketch(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0)
    throw failmine::DomainError("SpaceSavingSketch capacity must be positive");
  if (capacity > (std::size_t{1} << 30))  // positions are 32-bit
    throw failmine::DomainError("SpaceSavingSketch capacity exceeds 2^30");
  // At most a quarter full, so a probe meets a free slot within a step
  // or two.
  index_.resize(std::bit_ceil(4 * capacity));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
  heap_.reserve(capacity);
}

std::size_t SpaceSavingSketch::home_of(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::uint32_t SpaceSavingSketch::slot_of(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home_of(key);
  while (index_[slot].node != kEmpty && index_[slot].key != key)
    slot = (slot + 1) & mask;
  return static_cast<std::uint32_t>(slot);
}

void SpaceSavingSketch::place(std::size_t pos, Node node) {
  index_[node.slot].node = static_cast<std::uint32_t>(pos);
  heap_[pos] = node;
}

void SpaceSavingSketch::sift_up(std::size_t pos) {
  const Node node = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!evicts_first(node.entry, heap_[parent].entry)) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, node);
}

std::size_t SpaceSavingSketch::first_child(std::size_t pos) const {
  const std::size_t child = 2 * pos + 1;
  if (child + 1 >= heap_.size()) return child;
  return child + evicts_first(heap_[child + 1].entry, heap_[child].entry);
}

void SpaceSavingSketch::sift_down(std::size_t pos) {
  const Node node = heap_[pos];
  while (2 * pos + 1 < heap_.size()) {
    const std::size_t child = first_child(pos);
    if (!evicts_first(heap_[child].entry, node.entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, node);
}

void SpaceSavingSketch::replace_root(Node node) {
  // The new entry is light (the old minimum plus one weight) and usually
  // belongs near the leaves: walk the hole down the lighter children to
  // a leaf without comparing against it, then sift it up from there.
  std::size_t pos = 0;
  while (2 * pos + 1 < heap_.size()) {
    const std::size_t child = first_child(pos);
    place(pos, heap_[child]);
    pos = child;
  }
  heap_[pos] = node;
  sift_up(pos);
}

void SpaceSavingSketch::erase_slot(std::uint32_t slot) {
  // Backward-shift deletion: pull each later member of the probe run
  // into the hole when the hole lies on its path from its home slot.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  index_[hole].node = kEmpty;
  for (std::size_t j = (hole + 1) & mask; index_[j].node != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = home_of(index_[j].key);
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    index_[hole] = index_[j];
    heap_[index_[hole].node].slot = static_cast<std::uint32_t>(hole);
    index_[j].node = kEmpty;
    hole = j;
  }
}

void SpaceSavingSketch::add(std::uint64_t key, std::uint64_t weight) {
  total_weight_ += weight;
  const std::uint32_t slot = slot_of(key);
  if (index_[slot].node != kEmpty) {
    const std::uint32_t pos = index_[slot].node;
    heap_[pos].entry.count += weight;
    sift_down(pos);
    return;
  }
  if (heap_.size() < capacity_) {
    index_[slot].key = key;
    heap_.push_back({Entry{key, weight, 0}, slot});
    sift_up(heap_.size() - 1);
    return;
  }
  // Full: the root is the victim (smallest count, larger key on ties).
  const std::uint64_t floor = heap_.front().entry.count;
  erase_slot(heap_.front().slot);
  const std::uint32_t fresh = slot_of(key);  // the erase may shift slots
  index_[fresh].key = key;
  replace_root({Entry{key, floor + weight, floor}, fresh});
}

void SpaceSavingSketch::rebuild(const std::vector<Entry>& entries) {
  heap_.clear();
  std::fill(index_.begin(), index_.end(), Slot{});
  for (const Entry& e : entries) {
    const std::uint32_t slot = slot_of(e.key);
    index_[slot] = {e.key, static_cast<std::uint32_t>(heap_.size())};
    heap_.push_back({e, slot});
  }
  for (std::size_t pos = heap_.size() / 2; pos-- > 0;) sift_down(pos);
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::entries() const {
  std::vector<Entry> out;
  out.reserve(heap_.size());
  for (const Node& node : heap_) out.push_back(node.entry);
  std::sort(out.begin(), out.end(), heavier);
  return out;
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::top(
    std::size_t k) const {
  std::vector<Entry> out = entries();
  if (out.size() > k) out.resize(k);
  return out;
}

void SpaceSavingSketch::merge(const SpaceSavingSketch& other) {
  // A key absent from one (full) summary could still have accumulated up
  // to that summary's minimum count there; fold that in as error.
  auto min_count = [](const SpaceSavingSketch& s) -> std::uint64_t {
    if (s.heap_.size() < s.capacity_) return 0;  // nothing was evicted
    return s.heap_.front().entry.count;
  };
  const std::uint64_t self_floor = min_count(*this);
  const std::uint64_t other_floor = min_count(other);

  // merged[i] starts as heap_[i], so this summary's index finds a shared
  // key's merged entry.
  std::vector<Entry> merged;
  merged.reserve(heap_.size() + other.heap_.size());
  for (const Node& node : heap_) {
    Entry e = node.entry;
    e.count += other_floor;
    e.error += other_floor;
    merged.push_back(e);
  }
  for (const Node& node : other.heap_) {
    const Entry& entry = node.entry;
    const std::uint32_t pos = index_[slot_of(entry.key)].node;
    if (pos == kEmpty) {
      Entry e = entry;
      e.count += self_floor;
      e.error += self_floor;
      merged.push_back(e);
    } else {
      // Present in both: undo the unseen-floor padding for this key.
      merged[pos].count += entry.count - other_floor;
      merged[pos].error += entry.error - other_floor;
    }
  }

  total_weight_ += other.total_weight_;
  merged_error_floor_ += other_floor + self_floor;
  if (merged.size() > capacity_) {
    // Keep the heaviest `capacity_` keys.
    std::nth_element(merged.begin(),
                     merged.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     merged.end(), heavier);
    merged.resize(capacity_);
  }
  rebuild(merged);
}

std::uint64_t SpaceSavingSketch::error_bound() const {
  return total_weight_ / static_cast<std::uint64_t>(capacity_) +
         merged_error_floor_;
}

}  // namespace failmine::stream
