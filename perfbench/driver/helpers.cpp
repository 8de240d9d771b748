#include "helpers.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace perfbench {

namespace {

/// Looks `name` up in a name-sorted (name, value) vector, as
/// MetricsSample and MetricsDelta keep them.
template <class T>
const T* find_named(const std::vector<std::pair<std::string, T>>& items,
                    std::string_view name) {
  const auto it = std::lower_bound(
      items.begin(), items.end(), name,
      [](const std::pair<std::string, T>& item, std::string_view key) {
        return std::string_view(item.first) < key;
      });
  return it != items.end() && it->first == name ? &it->second : nullptr;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive": with m = len + 1, cut point
  // i interpolates between sorted[j - 1] and sorted[j] with integer
  // weights (n - delta) and delta.
  constexpr long long n = 4;
  const long long len = static_cast<long long>(values.size());
  const long long m = len + 1;
  double cut[3] = {};
  for (long long i = 1; i < n; ++i) {
    const long long j = std::clamp(i * m / n, 1LL, len - 1);
    const long long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return {cut[0], cut[1], cut[2]};
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add_u64(std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  add_bytes(bytes, sizeof bytes);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> status_kb(std::string_view text,
                                       std::string_view key) {
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':')
      continue;
    line.remove_prefix(key.size() + 1);
    const std::size_t digits = line.find_first_not_of(" \t");
    if (digits == std::string_view::npos) return std::nullopt;
    line.remove_prefix(digits);
    std::uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), value);
    if (ec != std::errc()) return std::nullopt;
    std::string_view unit(
        end, static_cast<std::size_t>(line.data() + line.size() - end));
    const std::size_t u = unit.find_first_not_of(" \t");
    if (u == std::string_view::npos || unit.substr(u) != "kB")
      return std::nullopt;
    return value;
  }
  return std::nullopt;
}

MetricsDelta::MetricsDelta(const failmine::obs::MetricsSample& before,
                           const failmine::obs::MetricsSample& after) {
  counters_.reserve(after.counters.size());
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t* was = find_named(before.counters, name);
    // A counter zeroed between the samples counts from zero.
    const std::uint64_t base = was != nullptr && *was <= value ? *was : 0;
    counters_.emplace_back(name, value - base);
  }
  histograms_.reserve(after.histograms.size());
  for (const auto& [name, sample] : after.histograms) {
    failmine::obs::HistogramSample d;
    d.upper_bounds = sample.upper_bounds;
    d.buckets = sample.buckets;
    d.count = sample.count;
    d.sum = sample.sum;
    const failmine::obs::HistogramSample* was =
        find_named(before.histograms, name);
    if (was != nullptr && was->buckets.size() == d.buckets.size() &&
        was->count <= d.count) {
      for (std::size_t i = 0; i < d.buckets.size(); ++i)
        d.buckets[i] -= std::min(d.buckets[i], was->buckets[i]);
      d.count -= was->count;
      d.sum -= was->sum;
    }
    histograms_.emplace_back(name, std::move(d));
  }
}

std::uint64_t MetricsDelta::counter(std::string_view name) const {
  const std::uint64_t* v = find_named(counters_, name);
  return v == nullptr ? 0 : *v;
}

const failmine::obs::HistogramSample& MetricsDelta::histogram(
    std::string_view name) const {
  const failmine::obs::HistogramSample* h = find_named(histograms_, name);
  return h == nullptr ? empty_ : *h;
}

double MetricsDelta::quantile(std::string_view name, double q) const {
  return failmine::obs::histogram_quantile(histogram(name), q);
}

std::int64_t self_time_us(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  for (auto& [b, e] : children) {
    b = std::clamp(b, start, end);
    e = std::clamp(e, start, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;
  for (const auto& [b, e] : children) {
    const std::int64_t from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return (end - start) - covered;
}

}  // namespace perfbench
