// failmine/util/parallel.hpp
//
// The one fork-join helper. The parallel ingest engine (chunk planning
// and chunk parsing), the columnar RAS merge and the CSV writer's row
// formatting all run their workers through run_parallel.

#pragma once

#include <cstddef>
#include <functional>

namespace failmine::util {

/// std::thread::hardware_concurrency(), or 1 when it is unknown; asked
/// once per process.
unsigned hardware_threads();

/// Runs fn(0..n_tasks) on up to `threads` workers (inline when either is
/// 1). Workers take the task indexes in ascending order, one at a time.
/// The first exception that escapes `fn` is rethrown on the caller after
/// every worker has returned; no task starts once one has thrown.
void run_parallel(std::size_t n_tasks, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace failmine::util
