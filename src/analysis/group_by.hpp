// failmine/analysis/group_by.hpp
//
// The dense-code group-by core of the paper's count and sum analyses.
//
// E02, E03, E06 and E11 each count or sum over one small coded
// dimension: exit class, user, project, component, category, hour,
// weekday or month. GroupBy<V> keeps one V per key in a dense array
// sized once, before a scan, so a row's update is an indexed add with
// no size check. User and project ids come from outside input, so a key
// space past kMaxDenseGroups slots goes to a hash map instead of a huge,
// mostly empty array. Every sizing registers the analysis.groupby_sparse
// counter and adds 1 when it takes that slow path.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace failmine::analysis {

/// Key spaces of more slots than this fall back to a hash map.
inline constexpr std::size_t kMaxDenseGroups = std::size_t{16} << 20;

/// Registers analysis.groupby_sparse and adds 1 if `sparse`.
void count_groupby_sizing(bool sparse);

template <class V>
class GroupBy {
 public:
  /// Sizes the key space to the keys below `slots`.
  explicit GroupBy(std::uint64_t slots) : sparse_(slots > kMaxDenseGroups) {
    count_groupby_sizing(sparse_);
    if (!sparse_) dense_.resize(slots);
  }

  /// The group of `key`, which must be below the sized slot count.
  V& operator[](std::uint32_t key) {
    return sparse_ ? sparse_map_[key] : dense_[key];
  }

  /// The group of any key, growing the key space to hold it: for merges
  /// and for key spaces known only while scanning (E11's months).
  V& grow(std::uint32_t key) {
    if (!sparse_ && key >= dense_.size()) {
      if (key < kMaxDenseGroups) {
        dense_.resize(std::size_t{key} + 1);
      } else {
        count_groupby_sizing(true);
        for (std::uint32_t k = 0; k < dense_.size(); ++k)
          sparse_map_.emplace(k, dense_[k]);
        dense_ = {};
        sparse_ = true;
      }
    }
    return (*this)[key];
  }

  /// fold(group of row.key, row) for each row = row_at(i), i < n. The
  /// dense-or-sparse choice is made once per scan, not per row.
  template <class RowAt, class Fold>
  void scan(std::size_t n, RowAt&& row_at, Fold&& fold) {
    const auto run = [&](auto&& group_of) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = row_at(i);
        fold(group_of(row.key), row);
      }
    };
    if (sparse_)
      run([this](std::uint32_t key) -> V& { return sparse_map_[key]; });
    else
      run([groups = dense_.data()](std::uint32_t key) -> V& {
        return groups[key];
      });
  }

  /// fold(mine, theirs) for every group of `other`.
  template <class Fold>
  void merge(const GroupBy& other, Fold&& fold) {
    other.for_each(
        [&](std::uint32_t key, const V& theirs) { fold(grow(key), theirs); });
  }

  /// fn(key, group) in ascending key order: every dense slot, or every
  /// key the hash map holds.
  template <class Fn>
  void for_each(Fn&& fn) const {
    if (!sparse_) {
      for (std::uint32_t k = 0; k < dense_.size(); ++k) fn(k, dense_[k]);
      return;
    }
    std::vector<std::uint32_t> keys;
    for (const auto& entry : sparse_map_) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    for (const std::uint32_t k : keys) fn(k, sparse_map_.at(k));
  }

 private:
  bool sparse_;
  std::vector<V> dense_;
  std::unordered_map<std::uint32_t, V> sparse_map_;
};

}  // namespace failmine::analysis
