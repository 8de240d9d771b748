// failmine/ingest/loader.hpp
//
// Parallel, zero-copy batch CSV loader shared by the four log libraries.
//
// load_csv mmaps the file (ingest/mapped_file.hpp), splits the body into
// ~threads×4 record-aligned chunks (ingest/chunk.hpp) and parses the
// chunks concurrently: each worker walks its chunk with a CsvCursor,
// which cuts and splits each record into an allocation-free
// util::FieldVec, and appends parsed records to a chunk-local vector. Workers
// touch no shared state while parsing — row counters accumulate as local
// deltas and are flushed to the obs metrics registry exactly once per
// load, and WARN diagnostics for rejected rows are deferred to the merge
// so they carry correct global row numbers. Results are concatenated in
// chunk order, which makes the output — records, metric deltas, WARN
// records and the thrown error on malformed input — byte-for-byte
// identical to the serial util::CsvReader path.
//
// Determinism guarantee: for any thread count and either I/O engine
// (mmap or the read() fallback), load_csv returns exactly the record
// sequence the serial reader produces, performs the same parse.* counter
// increments, and on malformed input throws the same exception after the
// same WARN log record. The only nondeterminism parallelism introduces —
// which worker parses which chunk first — is erased by the ordered merge
// and the deferred diagnostics.
//
// Instrumentation: ingest.bytes_mapped / ingest.chunks counters, the
// ingest.records_quoted counter (records that contain a '"' and so
// left the cursor's quote-free fast path for the RFC 4180 state
// machine; flushed once per load), an "ingest.load" span per file and
// an "ingest.chunk" span per chunk (on the worker thread, so chunk
// parsing shows up attributed in /profile flamegraphs).
//
// load_csv_fold generalizes the per-row action: each chunk folds its
// rows into a caller-supplied accumulator (the columnar builders use
// this to parse straight into column vectors with no intermediate
// record vector), while load_csv itself is the Acc = std::vector<Record>
// instance of the fold.

#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/chunk.hpp"
#include "ingest/mapped_file.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace failmine::ingest {

/// Knobs for one batch load.
struct LoadOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency(). Setting 1
  /// (with engine kAuto) selects today's serial std::getline reader in
  /// the log libraries' read_csv; the ingest engine itself also runs
  /// fine at 1 thread (no pool is spawned).
  unsigned threads = 0;

  /// Chunks per worker thread; >1 smooths imbalance between chunks.
  std::size_t chunks_per_thread = 4;

  /// Floor on the chunk size; small files get proportionally fewer
  /// chunks. Tests lower this to exercise multi-chunk plans on tiny
  /// inputs.
  std::size_t min_chunk_bytes = kDefaultMinChunkBytes;

  /// Bypass mmap and buffer through read(2) even for regular files.
  bool force_stream = false;
};

/// How a log library's read_csv picks its implementation.
enum class Engine {
  kAuto,    ///< serial reader iff threads == 1, ingest engine otherwise
  kSerial,  ///< always the line-oriented util::CsvReader path
  kMapped,  ///< always the ingest engine, whatever the thread count
};

/// Resolves LoadOptions::threads (0 → hardware concurrency, min 1).
unsigned effective_threads(const LoadOptions& options);

/// True when `read_csv(options, engine)` should take the legacy serial
/// path: an explicit Engine::kSerial, or kAuto with exactly one thread.
bool use_serial_reader(const LoadOptions& options, Engine engine);

namespace detail {

/// First rejected row of one chunk, captured on the worker and replayed
/// (WARN + throw) at merge time with its global row number.
struct RowFailure {
  enum class Kind {
    kQuote,   ///< unterminated quote (CSV level)
    kArity,   ///< field count != header arity (CSV level)
    kRecord,  ///< the record parser threw failmine::Error
  };
  Kind kind = Kind::kRecord;
  std::size_t local_row = 0;  ///< 1-based among the chunk's records
  std::size_t fields = 0;     ///< parsed field count (kArity only)
  std::string what;           ///< error text (kRecord WARN field)
  std::exception_ptr exception;  ///< rethrown verbatim (kQuote/kRecord)
};

/// Per-chunk bookkeeping accumulated worker-locally.
struct ChunkStats {
  std::size_t rows = 0;  ///< records attempted, including a failed one
  std::size_t quoted = 0;  ///< of those, records that contain a quote
  bool failed = false;
  RowFailure failure;
};

/// Mapped file + validated header + chunk plan for one load.
struct LoadPlan {
  MappedFile file;
  std::vector<std::string> header;
  std::string_view body;  ///< everything after the header line
  std::vector<Chunk> chunks;

  explicit LoadPlan(MappedFile f) : file(std::move(f)) {}
};

/// Opens `path`, validates the header against `expected_header` (the
/// mismatch error says "unexpected <header_label> header in <path>",
/// matching the serial loaders) and plans the chunks. Flushes the
/// ingest.bytes_mapped / ingest.chunks counters.
LoadPlan open_and_plan(const std::string& path,
                       const std::vector<std::string>& expected_header,
                       const std::string& header_label,
                       const LoadOptions& options);

/// Success-path metric flush: parse.lines_total and `records_counter`
/// advance by `rows`, and ingest.records_quoted by `quoted`, in one add
/// each.
void flush_success(const char* records_counter, std::size_t rows,
                   std::size_t quoted);

/// Failure path: flushes the counters the serial reader would have
/// touched before dying (lines_total/records up to the bad row, one
/// lines_rejected) and ingest.records_quoted by `quoted` (the quoted
/// records up to the bad row), emits the serial reader's WARN record
/// verbatim, and throws — the stored exception for quote/record
/// failures, a reconstructed ParseError (with the global row number) for
/// arity failures.
[[noreturn]] void report_failure(const std::string& path, const char* source,
                                 const char* records_counter,
                                 std::size_t header_arity,
                                 std::size_t rows_before, std::size_t quoted,
                                 const RowFailure& failure);

}  // namespace detail

/// Generalized parallel batch load: instead of collecting records into
/// per-chunk vectors, every chunk folds its rows into an accumulator
/// produced by `make_acc()` (a callable `Acc()`), through `row_fn(acc,
/// fields)` — invoked concurrently across chunks but sequentially, in
/// file order, within one chunk. `row_fn` must be thread-safe across
/// distinct accumulators and should throw failmine::Error for invalid
/// rows. Returns the accumulators in chunk (= file) order.
///
/// This is load_csv with the "what happens per row" swapped out: header
/// validation, chunk planning, the allocation-free field splitter, the
/// first-failed-chunk semantics, metric flushes and diagnostics are
/// shared code, so a fold caller (e.g. the columnar builders) inherits
/// the same determinism guarantee — on malformed input the same
/// exception is thrown after the same WARN record, and no accumulators
/// are returned.
template <class Acc, class MakeAcc, class RowFn>
std::vector<Acc> load_csv_fold(const std::string& path,
                               const std::vector<std::string>& expected_header,
                               const char* source,
                               const std::string& header_label,
                               const char* records_counter, MakeAcc&& make_acc,
                               RowFn&& row_fn, const LoadOptions& options = {}) {
  FAILMINE_TRACE_SPAN("ingest.load");
  detail::LoadPlan plan =
      detail::open_and_plan(path, expected_header, header_label, options);
  const std::size_t arity = plan.header.size();

  std::vector<Acc> results;
  results.reserve(plan.chunks.size());
  for (std::size_t ci = 0; ci < plan.chunks.size(); ++ci)
    results.push_back(make_acc());
  std::vector<detail::ChunkStats> stats(plan.chunks.size());
  // Index of the first chunk that rejected a row: chunks after it would
  // never have been read by the serial reader, so workers past it stop
  // early (their partial output is discarded by the merge anyway).
  std::atomic<std::size_t> first_failed{plan.chunks.size()};

  util::run_parallel(
      plan.chunks.size(), effective_threads(options), [&](std::size_t ci) {
        FAILMINE_TRACE_SPAN("ingest.chunk");
        const Chunk& chunk = plan.chunks[ci];
        Acc& out = results[ci];
        detail::ChunkStats& st = stats[ci];
        util::FieldVec fields;
        CsvCursor cursor(chunk.data);
        for (;;) {
          if (ci > first_failed.load(std::memory_order_relaxed)) return;
          try {
            if (!cursor.next(fields)) break;
          } catch (const failmine::ParseError&) {
            ++st.rows;
            st.failed = true;
            st.failure.kind = detail::RowFailure::Kind::kQuote;
            st.failure.local_row = st.rows;
            st.failure.exception = std::current_exception();
            break;
          }
          ++st.rows;
          if (fields.size() != arity) {
            st.failed = true;
            st.failure.kind = detail::RowFailure::Kind::kArity;
            st.failure.local_row = st.rows;
            st.failure.fields = fields.size();
            break;
          }
          try {
            row_fn(out, fields);
          } catch (const failmine::Error& e) {
            st.failed = true;
            st.failure.kind = detail::RowFailure::Kind::kRecord;
            st.failure.local_row = st.rows;
            st.failure.what = e.what();
            st.failure.exception = std::current_exception();
            break;
          }
        }
        st.quoted = cursor.quoted_records();
        if (st.failed) {
          std::size_t expected = first_failed.load(std::memory_order_relaxed);
          while (ci < expected &&
                 !first_failed.compare_exchange_weak(
                     expected, ci, std::memory_order_relaxed)) {
          }
        }
      });

  // The first failed chunk (in file order) wins; everything before it
  // contributed rows, everything after it is discarded — exactly the
  // serial reader's view of the file.
  std::size_t rows_before = 0;
  std::size_t quoted = 0;
  for (std::size_t ci = 0; ci < plan.chunks.size(); ++ci) {
    quoted += stats[ci].quoted;
    if (stats[ci].failed)
      detail::report_failure(path, source, records_counter, arity,
                             rows_before, quoted, stats[ci].failure);
    rows_before += stats[ci].rows;
  }
  detail::flush_success(records_counter, rows_before, quoted);
  return results;
}

/// Parallel batch load: parses every record of `path` through `parse`
/// (a callable `Record(const util::FieldVec&)` invoked concurrently from
/// worker threads; it must be thread-safe and should throw
/// failmine::Error for invalid records) and returns the records in file
/// order. See the file comment for the determinism guarantee.
template <class Record, class ParseFn>
std::vector<Record> load_csv(const std::string& path,
                             const std::vector<std::string>& expected_header,
                             const char* source, const std::string& header_label,
                             const char* records_counter, ParseFn&& parse,
                             const LoadOptions& options = {}) {
  std::vector<std::vector<Record>> parts = load_csv_fold<std::vector<Record>>(
      path, expected_header, source, header_label, records_counter,
      [] { return std::vector<Record>(); },
      [&parse](std::vector<Record>& out, const util::FieldVec& fields) {
        out.push_back(parse(fields));
      },
      options);

  // Merge in chunk order.
  std::size_t total_records = 0;
  for (const auto& part : parts) total_records += part.size();
  std::vector<Record> merged;
  merged.reserve(total_records);
  for (auto& part : parts) {
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    part.clear();
    part.shrink_to_fit();
  }
  return merged;
}

}  // namespace failmine::ingest
