#include "ingest/chunk.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace failmine::ingest {

std::vector<Chunk> plan_chunks(std::string_view data,
                               std::size_t target_chunks,
                               std::size_t min_chunk_bytes, unsigned threads) {
  std::vector<Chunk> chunks;
  if (data.empty()) return chunks;
  if (target_chunks < 1) target_chunks = 1;
  if (min_chunk_bytes < 1) min_chunk_bytes = 1;
  // Small inputs get fewer chunks: a chunk below min_chunk_bytes costs
  // more in thread scheduling than its parallelism wins.
  target_chunks =
      std::min(target_chunks, std::max<std::size_t>(1, data.size() / min_chunk_bytes));
  const std::size_t nominal =
      std::max<std::size_t>(1, data.size() / target_chunks);

  // Quote parity at candidate k * nominal is the parity of the quote
  // count before it. The workers count the quotes of each nominal
  // segment [k * nominal, (k + 1) * nominal); a serial prefix pass then
  // gives the parity at every candidate.
  std::vector<unsigned char> odd_quotes(target_chunks - 1);
  util::run_parallel(odd_quotes.size(), threads, [&](std::size_t k) {
    const auto begin = data.begin() + static_cast<std::ptrdiff_t>(k * nominal);
    const auto quotes =
        std::count(begin, begin + static_cast<std::ptrdiff_t>(nominal), '"');
    odd_quotes[k] = static_cast<unsigned char>(quotes % 2);
  });

  std::vector<std::size_t> starts{0};
  bool parity = false;  // in-quotes state at the current candidate
  for (std::size_t k = 1; k < target_chunks; ++k) {
    if (odd_quotes[k - 1] != 0) parity = !parity;
    const std::size_t candidate = k * nominal;
    if (candidate <= starts.back()) continue;
    // Forward scan from the candidate to the next record boundary, with
    // the exact quote state at the candidate in hand.
    bool in_quotes = parity;
    std::size_t i = candidate;
    std::size_t boundary = data.size();
    while (i < data.size()) {
      const char c = data[i];
      if (c == '"')
        in_quotes = !in_quotes;
      else if (c == '\n' && !in_quotes) {
        boundary = i + 1;
        break;
      }
      ++i;
    }
    if (boundary >= data.size()) break;  // the remainder is one chunk
    starts.push_back(boundary);
  }

  chunks.reserve(starts.size());
  for (std::size_t s = 0; s < starts.size(); ++s) {
    const std::size_t begin = starts[s];
    const std::size_t end = s + 1 < starts.size() ? starts[s + 1] : data.size();
    chunks.push_back(Chunk{data.substr(begin, end - begin), s});
  }
  return chunks;
}

}  // namespace failmine::ingest
