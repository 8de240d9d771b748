// Tests for the streaming sketches: GK quantile summary rank-error
// bounds (including shard merges) and space-saving heavy-hitter
// guarantees.

#include "stream/quantile_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "stream/heavy_hitters.hpp"
#include "util/error.hpp"

namespace failmine::stream {
namespace {

/// True rank interval of `value` in sorted data: [first, last] positions
/// (1-based) a query returning `value` could legitimately claim.
std::pair<std::uint64_t, std::uint64_t> rank_range(
    const std::vector<double>& sorted, double value) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), value);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), value);
  return {static_cast<std::uint64_t>(lo - sorted.begin()) + 1,
          static_cast<std::uint64_t>(hi - sorted.begin())};
}

void expect_within_rank_error(const GkQuantileSketch& sketch,
                              std::vector<double> data) {
  std::sort(data.begin(), data.end());
  const double n = static_cast<double>(data.size());
  const double eps_n = sketch.epsilon() * n;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double value = sketch.quantile(q);
    const auto [lo, hi] = rank_range(data, value);
    ASSERT_LE(lo, hi) << "quantile returned a value not in the stream";
    const double target = std::ceil(q * n);
    // The value's true rank interval must intersect [target-εn, target+εn].
    EXPECT_LE(static_cast<double>(lo), target + eps_n) << "q=" << q;
    EXPECT_GE(static_cast<double>(hi), target - eps_n) << "q=" << q;
  }
}

TEST(GkSketch, ExactOnTinyStreams) {
  GkQuantileSketch s(0.01);
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.insert(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
}

TEST(GkSketch, EmptyQuantileThrows) {
  GkQuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.quantile(0.5), DomainError);
}

TEST(GkSketch, RejectsBadEpsilon) {
  EXPECT_THROW(GkQuantileSketch(0.0), DomainError);
  EXPECT_THROW(GkQuantileSketch(0.6), DomainError);
}

TEST(GkSketch, RankErrorBoundOnSkewedStream) {
  // Log-normal-ish heavy tail, like job runtimes.
  std::mt19937_64 rng(7);
  GkQuantileSketch s(0.01);
  std::vector<double> data;
  for (int i = 0; i < 50000; ++i) {
    const double u = static_cast<double>(rng() % 1000000) / 1000000.0;
    const double v = std::exp(8.0 * u);  // spans ~1..3000
    data.push_back(v);
    s.insert(v);
  }
  expect_within_rank_error(s, data);
  // Memory must stay sketch-sized, not stream-sized.
  EXPECT_LT(s.summary_size(), 2000u);
}

TEST(GkSketch, RankErrorBoundOnSortedAndReversedStreams) {
  for (bool reversed : {false, true}) {
    GkQuantileSketch s(0.005);
    std::vector<double> data;
    for (int i = 0; i < 20000; ++i) {
      const double v = reversed ? 20000.0 - i : static_cast<double>(i);
      data.push_back(v);
      s.insert(v);
    }
    expect_within_rank_error(s, data);
  }
}

TEST(GkSketch, MergePreservesEpsilonAcrossShards) {
  // Four disjoint substreams, as produced by four pipeline shards.
  std::mt19937_64 rng(11);
  std::vector<GkQuantileSketch> shards(4, GkQuantileSketch(0.005));
  std::vector<double> data;
  for (int i = 0; i < 40000; ++i) {
    const double v = static_cast<double>(rng() % 100000);
    data.push_back(v);
    shards[rng() % 4].insert(v);
  }
  GkQuantileSketch merged(0.005);
  for (const auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.count(), 40000u);
  expect_within_rank_error(merged, data);
}

// ---- SpaceSavingSketch ------------------------------------------------

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSavingSketch(0), DomainError);
}

TEST(SpaceSaving, RejectsCapacityPastThirtyBitPositions) {
  // Heap positions and index slots are 32-bit; the check runs before
  // anything is allocated.
  EXPECT_THROW(SpaceSavingSketch((std::size_t{1} << 30) + 1), DomainError);
}

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSavingSketch s(8);
  for (int i = 0; i < 5; ++i)
    for (int k = 0; k <= i; ++k) s.add(static_cast<std::uint64_t>(i));
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 4u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 3u);
}

TEST(SpaceSaving, HeavyKeysSurviveEviction) {
  // 10 heavy keys (1000 each) in a sea of 5000 singleton keys, capacity
  // 64: every heavy key's weight exceeds n/m, so all must be reported,
  // with count overestimating by at most error.
  std::mt19937_64 rng(3);
  SpaceSavingSketch s(64);
  std::vector<std::uint64_t> stream;
  for (std::uint64_t k = 0; k < 10; ++k)
    for (int i = 0; i < 1000; ++i) stream.push_back(k);
  for (std::uint64_t k = 0; k < 5000; ++k) stream.push_back(1000 + k);
  std::shuffle(stream.begin(), stream.end(), rng);
  for (std::uint64_t k : stream) s.add(k);

  const auto top = s.top(10);
  ASSERT_EQ(top.size(), 10u);
  for (const auto& e : top) {
    EXPECT_LT(e.key, 10u);  // exactly the heavy keys
    EXPECT_GE(e.count, 1000u);            // never undercounts
    EXPECT_LE(e.count - e.error, 1000u);  // count - error <= true count
    EXPECT_LE(e.error, s.error_bound());
  }
  EXPECT_LE(s.error_bound(), stream.size() / 64 + 1);
}

TEST(SpaceSaving, MergeKeepsHeavyKeysFromBothShards) {
  SpaceSavingSketch a(32), b(32);
  for (int i = 0; i < 500; ++i) a.add(1);
  for (int i = 0; i < 300; ++i) a.add(2);
  for (std::uint64_t k = 100; k < 150; ++k) a.add(k);  // shard-a noise
  for (int i = 0; i < 400; ++i) b.add(3);
  for (int i = 0; i < 200; ++i) b.add(1);
  for (std::uint64_t k = 200; k < 250; ++k) b.add(k);  // shard-b noise

  a.merge(b);
  EXPECT_EQ(a.total_weight(), 500u + 300u + 50u + 400u + 200u + 50u);
  const auto top = a.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 1u);  // 700 across both shards
  EXPECT_GE(top[0].count, 700u);
  EXPECT_LE(top[0].count - top[0].error, 700u);
  EXPECT_EQ(top[1].key, 3u);
  EXPECT_EQ(top[2].key, 2u);
}

TEST(SpaceSaving, WeightedAdds) {
  SpaceSavingSketch s(4);
  s.add(7, 10);
  s.add(8, 3);
  EXPECT_EQ(s.total_weight(), 13u);
  EXPECT_EQ(s.top(1)[0].key, 7u);
  EXPECT_EQ(s.top(1)[0].count, 10u);
}

// ---- SpaceSavingSketch against the map-and-scan reference -------------

/// The sketch as a hash map with an O(capacity) victim scan (minimum
/// count, larger key on ties) — the plainest form of the contract the
/// heap-ordered sketch must reproduce entry for entry.
class ReferenceSpaceSaving {
 public:
  using Entry = SpaceSavingSketch::Entry;

  explicit ReferenceSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void add(std::uint64_t key, std::uint64_t weight) {
    total_weight_ += weight;
    const auto it = counts_.find(key);
    if (it != counts_.end()) {
      it->second.count += weight;
      return;
    }
    if (counts_.size() < capacity_) {
      counts_.emplace(key, Entry{key, weight, 0});
      return;
    }
    auto min_it = counts_.begin();
    for (auto i = counts_.begin(); i != counts_.end(); ++i)
      if (i->second.count < min_it->second.count ||
          (i->second.count == min_it->second.count &&
           i->second.key > min_it->second.key))
        min_it = i;
    const std::uint64_t floor = min_it->second.count;
    counts_.erase(min_it);
    counts_.emplace(key, Entry{key, floor + weight, floor});
  }

  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    for (const auto& [key, entry] : counts_) out.push_back(entry);
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    });
    return out;
  }

  std::optional<Entry> find(std::uint64_t key) const {
    const auto it = counts_.find(key);
    if (it == counts_.end()) return std::nullopt;
    return it->second;
  }

  void merge(const ReferenceSpaceSaving& other) {
    auto min_count = [](const ReferenceSpaceSaving& s) -> std::uint64_t {
      if (s.counts_.size() < s.capacity_) return 0;
      std::uint64_t m = UINT64_MAX;
      for (const auto& [key, entry] : s.counts_) m = std::min(m, entry.count);
      return m;
    };
    const std::uint64_t self_floor = min_count(*this);
    const std::uint64_t other_floor = min_count(other);
    std::unordered_map<std::uint64_t, Entry> merged;
    for (const auto& [key, entry] : counts_) {
      Entry e = entry;
      e.count += other_floor;
      e.error += other_floor;
      merged.emplace(key, e);
    }
    for (const auto& [key, entry] : other.counts_) {
      auto it = merged.find(key);
      if (it == merged.end()) {
        Entry e = entry;
        e.count += self_floor;
        e.error += self_floor;
        merged.emplace(key, e);
      } else {
        it->second.count += entry.count - other_floor;
        it->second.error += entry.error - other_floor;
      }
    }
    counts_ = std::move(merged);
    total_weight_ += other.total_weight_;
    merged_error_floor_ += other_floor + self_floor;
    if (counts_.size() > capacity_) {
      std::vector<Entry> ordered = entries();
      counts_.clear();
      for (std::size_t i = 0; i < capacity_; ++i)
        counts_.emplace(ordered[i].key, ordered[i]);
    }
  }

  std::uint64_t total_weight() const { return total_weight_; }
  std::uint64_t error_bound() const {
    return total_weight_ / capacity_ + merged_error_floor_;
  }

 private:
  std::size_t capacity_;
  std::uint64_t total_weight_ = 0;
  std::uint64_t merged_error_floor_ = 0;
  std::unordered_map<std::uint64_t, Entry> counts_;
};

bool same_entry(const SpaceSavingSketch::Entry& a,
                const SpaceSavingSketch::Entry& b) {
  return a.key == b.key && a.count == b.count && a.error == b.error;
}

void expect_same_sketch(const SpaceSavingSketch& sketch,
                        const ReferenceSpaceSaving& reference,
                        std::uint64_t key_space) {
  const auto got = sketch.entries();
  const auto want = reference.entries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_entry(got[i], want[i]))
        << "entry " << i << ": key " << got[i].key << " vs " << want[i].key
        << ", count " << got[i].count << " vs " << want[i].count;
  for (std::uint64_t key = 0; key < key_space; ++key) {
    const auto a = sketch.find(key);
    const auto b = reference.find(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << "key " << key;
    if (a) ASSERT_TRUE(same_entry(*a, *b)) << "key " << key;
  }
  ASSERT_EQ(sketch.total_weight(), reference.total_weight());
  ASSERT_EQ(sketch.error_bound(), reference.error_bound());
}

TEST(SpaceSaving, MatchesMapReferenceOnSeededStreams) {
  // Small capacities over skewed keys with unit-heavy weights: counts tie
  // often, so the victim rule (larger key first on ties) decides most
  // evictions. One stream in three also folds in a second summary.
  std::size_t merges = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const std::size_t capacity = 1 + rng() % 80;
    const std::uint64_t key_space = 1 + rng() % 400;
    auto draw_key = [&] { return rng() % (1 + rng() % key_space); };
    auto draw_weight = [&] { return rng() % 3 == 0 ? 1 + rng() % 5 : 1; };
    SpaceSavingSketch sketch(capacity);
    ReferenceSpaceSaving reference(capacity);
    const std::size_t adds = rng() % 3001;
    for (std::size_t i = 1; i <= adds; ++i) {
      const std::uint64_t key = draw_key();
      const std::uint64_t weight = draw_weight();
      sketch.add(key, weight);
      reference.add(key, weight);
      if (i % 1000 == 0)
        ASSERT_NO_FATAL_FAILURE(
            expect_same_sketch(sketch, reference, key_space));
    }
    if (rng() % 3 == 0) {
      const std::size_t other_capacity = 1 + rng() % 80;
      SpaceSavingSketch other(other_capacity);
      ReferenceSpaceSaving other_reference(other_capacity);
      const std::size_t other_adds = rng() % 1500;
      for (std::size_t i = 0; i < other_adds; ++i) {
        const std::uint64_t key = draw_key();
        const std::uint64_t weight = draw_weight();
        other.add(key, weight);
        other_reference.add(key, weight);
      }
      sketch.merge(other);
      reference.merge(other_reference);
      ++merges;
      ASSERT_NO_FATAL_FAILURE(expect_same_sketch(sketch, reference, key_space));
      // The merged summary keeps counting.
      for (std::size_t i = 0; i < 500; ++i) {
        const std::uint64_t key = draw_key();
        sketch.add(key, 1);
        reference.add(key, 1);
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_sketch(sketch, reference, key_space));
  }
  EXPECT_GE(merges, 250u);
}

}  // namespace
}  // namespace failmine::stream
