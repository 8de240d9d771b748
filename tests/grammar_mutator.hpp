// Seeded byte/token mutator shared by the query-grammar and alert-rule
// mutation tests (test_obs_tsdb.cpp, test_obs_alerts.cpp). Each next()
// takes one corpus entry and applies 1-4 edits: a random byte
// overwrite, a grammar-token insert or span replacement, a span delete,
// a duplicated slice, or a crossover with another entry's tail. The
// token list leans on the grammar's delimiters and on boundary numbers
// (zero, sub-millisecond, 2^53 ms, inf/nan, 1e300), where a parser is
// most likely to accept something its renderer cannot reproduce. A
// fixed seed replays the same inputs on every run.

#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace failmine::test {

class GrammarMutator {
 public:
  GrammarMutator(std::vector<std::string> corpus, std::uint64_t seed)
      : corpus_(std::move(corpus)), rng_(seed) {}

  std::string next() {
    std::string s = corpus_[pick(corpus_.size())];
    for (std::size_t edits = 1 + pick(4); edits > 0; --edits) {
      mutate(s);
      ++edits_;
    }
    return s;
  }

  /// Edits applied so far, over all next() calls.
  std::size_t edits() const { return edits_; }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  std::string_view token() {
    static constexpr std::string_view kTokens[] = {
        "(", ")", "[", "]", "{", "}", "\"", ",", "=", "=~", "~", "*", ".",
        ":", "#", "\n", " ", "\t", "\r", "\\", "<", ">", ">=", "<=", "+",
        "-", "sum", "avg", "min", "max", "by", " by (twin) ", "sum by (",
        "value", "rate", "increase", "p0", "p1", "p05", "p50", "p99", "p100",
        "ms", "s", "m", "h", "0", "1", "-5", "0.4", "0.5", "1e300", "1e-400",
        "inf", "nan", "-inf", "0x1p3", "9007199254740992", "9007199254740993",
        "150119987579m", "[0m]", "[30]", "[0.4ms]", "[infs]", "[1e300s]",
        "[1m]", "for", " for ", " for 5s", " for 1e300s", "twin", "le",
        "{twin=~\"*\"}", "{le=\"+Inf\"}", "\\\"", std::string_view("\0", 1),
        "\xff"};
    return kTokens[pick(std::size(kTokens))];
  }

  void mutate(std::string& s) {
    const std::size_t at = pick(s.size() + 1);
    const std::size_t len = std::min<std::size_t>(1 + pick(4), s.size() - at);
    switch (pick(6)) {
      case 0:  // overwrite one byte
        if (at < s.size()) s[at] = static_cast<char>(pick(256));
        break;
      case 1:  // insert a token
        s.insert(at, token());
        break;
      case 2:  // delete a span
        s.erase(at, len);
        break;
      case 3:  // replace a span with a token
        s.replace(at, len, token());
        break;
      case 4:  // duplicate a slice in place
        s.insert(at, s.substr(at, len));
        break;
      case 5: {  // crossover: keep a prefix, graft another entry's tail
        const std::string& other = corpus_[pick(corpus_.size())];
        s = s.substr(0, at) + other.substr(pick(other.size() + 1));
        break;
      }
    }
  }

  std::vector<std::string> corpus_;
  std::mt19937_64 rng_;
  std::size_t edits_ = 0;
};

}  // namespace failmine::test
