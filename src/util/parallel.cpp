#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace failmine::util {

unsigned hardware_threads() {
  // Asked once: the C library counts the online CPUs from /sys at every
  // call.
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

void run_parallel(std::size_t n_tasks, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n_tasks == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, n_tasks));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n_tasks; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  // First exception wins; the ingest loader captures parse failures in
  // its chunk stats, so only catastrophic ones reach here from it.
  std::exception_ptr error;
  std::atomic<bool> has_error{false};
  std::mutex error_mutex;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_tasks) return;
      if (has_error.load(std::memory_order_acquire)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        has_error.store(true, std::memory_order_release);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace failmine::util
