#include "spans.hpp"

#include <algorithm>
#include <limits>

#include "helpers.hpp"
#include "obs/json.hpp"
#include "stream/record.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// The span that pins obs::tracer()'s clock to the steady clock.
constexpr std::string_view kClockProbe = "perfbench.clock_probe";

std::int64_t to_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

SpanLog::SpanLog(bool enabled, std::uint64_t seed)
    : enabled_(enabled), seed_(seed) {
  if (!enabled_) return;
  // obs::tracer() stamps spans in microseconds since its own epoch; one
  // probe span places that epoch on the steady clock.
  const std::int64_t before = to_us(Clock::now());
  { const failmine::obs::Span probe(kClockProbe); }
  for (const failmine::obs::SpanRecord& r : failmine::obs::tracer().records())
    if (r.name == kClockProbe)
      obs_epoch_us_ = before - static_cast<std::int64_t>(r.start_us);
}

std::uint32_t SpanLog::open(std::string_view name, std::int64_t start_us) {
  if (!enabled_) return 0;
  TraceSpan s;
  s.name = std::string(name);
  s.start_us = start_us;
  s.end_us = start_us;
  if (open_.empty()) {
    s.trace_id = failmine::stream::mix64(seed_ ^ (++traces_ << 32));
  } else {
    s.parent = open_.back();
    s.trace_id = spans_[s.parent - 1].trace_id;
  }
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id, std::int64_t end_us) {
  if (id == 0) return;
  spans_[id - 1].end_us = end_us;
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void SpanLog::count(std::uint32_t id, std::string_view key, std::uint64_t n) {
  if (id == 0) return;
  spans_[id - 1].counts.emplace_back(std::string(key), n);
}

void SpanLog::adopt(std::uint32_t root,
                    const std::vector<failmine::obs::SpanRecord>& records) {
  if (!enabled_ || root == 0) return;
  const auto last = static_cast<std::uint32_t>(spans_.size());
  const std::uint64_t trace_id = spans_[root - 1].trace_id;

  std::vector<const failmine::obs::SpanRecord*> order;
  order.reserve(records.size());
  for (const failmine::obs::SpanRecord& r : records)
    if (r.name != kClockProbe) order.push_back(&r);
  // Per thread in start order; a parent sorts before a child that starts
  // in the same microsecond.
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->thread_id != b->thread_id) return a->thread_id < b->thread_id;
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->depth < b->depth;
  });

  std::vector<std::uint32_t> enclosing;  // by depth, on the current thread
  std::uint32_t thread = std::numeric_limits<std::uint32_t>::max();
  for (const failmine::obs::SpanRecord* r : order) {
    if (r->thread_id != thread) {
      thread = r->thread_id;
      enclosing.clear();
    }
    if (enclosing.size() > r->depth) enclosing.resize(r->depth);
    TraceSpan s;
    s.trace_id = trace_id;
    s.name = r->name;
    s.program = true;
    s.thread = r->thread_id;
    s.start_us = obs_epoch_us_ + static_cast<std::int64_t>(r->start_us);
    s.end_us = s.start_us + static_cast<std::int64_t>(r->duration_us);
    const bool nested = r->depth > 0 && enclosing.size() == r->depth;
    s.parent = nested ? enclosing.back() : covering(root, last, s.start_us);
    spans_.push_back(std::move(s));
    if (enclosing.size() == r->depth)
      enclosing.push_back(static_cast<std::uint32_t>(spans_.size()));
  }
}

std::uint32_t SpanLog::covering(std::uint32_t first, std::uint32_t last,
                                std::int64_t t) const {
  // Spans first..last were opened in time order: take the last one opened
  // by `t`, then climb to the innermost ancestor still open at `t`.
  std::uint32_t lo = first;
  std::uint32_t hi = last;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (spans_[mid - 1].start_us <= t)
      lo = mid;
    else
      hi = mid - 1;
  }
  std::uint32_t id = lo;
  while (id > first && spans_[id - 1].end_us < t) id = spans_[id - 1].parent;
  return id;
}

std::string SpanLog::to_json() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const TraceSpan& s : spans_)
    children[s.parent].emplace_back(s.start_us, s.end_us);
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"trace_id\":\"" + hex64(s.trace_id) + "\"";
    out += ",\"id\":" + std::to_string(i + 1);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"name\":";
    failmine::obs::append_json_string(out, s.name);
    out += std::string(",\"program\":") + (s.program ? "true" : "false");
    out += ",\"thread\":" + std::to_string(s.thread);
    out += ",\"start_us\":" + std::to_string(s.start_us);
    out += ",\"dur_us\":" + std::to_string(s.end_us - s.start_us);
    out += ",\"self_us\":" +
           std::to_string(self_time_us(s.start_us, s.end_us, children[i + 1]));
    out += ",\"counts\":{";
    for (std::size_t c = 0; c < s.counts.size(); ++c) {
      if (c > 0) out += ',';
      failmine::obs::append_json_string(out, s.counts[c].first);
      out += ':' + std::to_string(s.counts[c].second);
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

Timed::Timed(SpanLog& log, std::string_view name)
    : log_(log), start_(Clock::now()) {
  id_ = log_.open(name, to_us(start_));
}

double Timed::stop() {
  if (!stopped_) {
    const Clock::time_point end = Clock::now();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    log_.close(id_, to_us(end));
    stopped_ = true;
  }
  return seconds_;
}

}  // namespace perfbench
