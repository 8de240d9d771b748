# Shared metric-name expectations for the example smoke checks.
#
# include()d by check_obs_exports.cmake and check_stream_metrics.cmake
# (and any future check script) so the instrument names the smoke tests
# assert on live in exactly one place. The names must track what the
# library registers — see src/stream/pipeline.hpp for the streaming
# instruments and src/obs/serve.cpp for the server's self-metrics.

# Gauges the streaming pipeline always creates (construction / router
# startup), so any successful replay must have exported them.
set(FAILMINE_STREAM_REQUIRED_GAUGES
  stream.queue_depth
  stream.watermark_lag_s
  stream.ingest.occupancy
  stream.reorder.buffered
  stream.reorder.pinned_batches)

# Histograms a successful replay must have exported.
set(FAILMINE_STREAM_REQUIRED_HISTOGRAMS
  stream.router.batch_us)

# Counters whose *values* the stream check inspects.
set(FAILMINE_STREAM_IN_COUNTER stream.records_in)
set(FAILMINE_STREAM_DROPPED_COUNTER stream.records_dropped)
# Interruptions the router's similarity filter opened: one per twin, and
# with --predict equal to predict.interruptions (the predictor reads the
# router's filter rather than clustering again).
set(FAILMINE_STREAM_INTERRUPTIONS_COUNTER stream.interruptions_opened)

# Causal-tracing instruments the pipeline's tracer configures at
# construction (src/obs/causal.cpp): one latency histogram per stage
# after emit, the end-to-end histogram, and the sampled-trace counter.
# They exist (possibly all-zero) whenever trace sampling is enabled,
# which is the stream example's default.
set(FAILMINE_CAUSAL_REQUIRED_HISTOGRAMS
  causal.stage.ring_us
  causal.stage.reorder_us
  causal.stage.shard_us
  causal.stage.apply_us
  causal.e2e_us)
set(FAILMINE_CAUSAL_SAMPLED_COUNTER causal.sampled)

# Alert-engine instruments (src/obs/alerts.cpp) — the stream example
# always runs the engine over the built-in rule set.
set(FAILMINE_ALERTS_REQUIRED_METRICS
  obs.alerts.firing
  obs.alerts.evaluations
  obs.alerts.transitions)

# Prediction-subsystem instruments (src/predict/operator.cpp) — present
# whenever the stream replay runs with --predict, which the stream smoke
# test does. predict.records must be non-zero: the operator sees every
# routed record.
set(FAILMINE_PREDICT_REQUIRED_COUNTERS
  predict.records
  predict.warns
  predict.interruptions
  predict.alerts
  predict.jobs_scored)
set(FAILMINE_PREDICT_REQUIRED_HISTOGRAMS
  predict.lead_time_s
  predict.risk_score
  predict.flag_lead_s)
set(FAILMINE_PREDICT_RECORDS_COUNTER predict.records)
set(FAILMINE_PREDICT_INTERRUPTIONS_COUNTER predict.interruptions)

# Process-level gauges update_process_metrics() maintains on every
# export and scrape (src/obs/metrics.cpp).
set(FAILMINE_PROCESS_REQUIRED_GAUGES
  process_start_time_seconds
  failmine_uptime_seconds)

# The parse counter the obs-exports check requires to be populated.
set(FAILMINE_PARSE_LINES_COUNTER parse.lines_total)

# Counters the parallel mmap ingest engine registers on every batch load
# (src/ingest/loader.cpp) — the default --data loading path, so a summary
# run must have exported them. ingest.records_quoted counts the records
# that left the quote-free scan fast path; it registers even at 0.
set(FAILMINE_INGEST_REQUIRED_COUNTERS
  ingest.bytes_mapped
  ingest.chunks
  ingest.records_quoted)

# Counters the columnar table builder flushes on every merge
# (src/columnar/builder.cpp) — present whenever a dataset was loaded
# with --columnar, with columnar.rows matching the ingested row count.
# The two fallback counters (rows permuted because chunks arrived out of
# order; a timestamp column sealed as plain i64) register on every merge,
# so they export even at 0.
set(FAILMINE_COLUMNAR_REQUIRED_COUNTERS
  columnar.rows
  columnar.bytes
  columnar.dict_entries
  columnar.merge_sorted
  columnar.timestamps_plain)
set(FAILMINE_COLUMNAR_ROWS_COUNTER columnar.rows)

# The dense-code group-by's fallback counter (src/analysis/accumulators.cpp):
# every group-by sizing registers it and adds 1 when the key space is too
# large for a dense array. The stream replay runs one per shard (E02 keyed
# by exit class), so its export carries the counter, at 0.
set(FAILMINE_GROUPBY_REQUIRED_COUNTERS
  analysis.groupby_sparse)

# Self-metrics the telemetry server pre-registers at start(), so any
# replay run with --serve must have exported them (even all-zero): the
# request totals, the request-latency histogram and the sampling
# profiler's counters.
set(FAILMINE_SERVE_REQUIRED_COUNTERS
  obs.serve.requests
  obs.serve.bad_requests
  obs.serve.rejected_connections
  obs.profile.samples
  obs.profile.dropped
  obs.profile.truncated_stacks)
set(FAILMINE_SERVE_REQUIRED_HISTOGRAMS
  obs.serve.latency_us)
# Per-endpoint counters carry the path as an inline label
# (`obs.serve.requests{path="/metrics"}`); the JSON export escapes the
# inner quotes, so checks match on this prefix rather than a full name.
set(FAILMINE_SERVE_LABELED_REQUESTS_PREFIX "obs\\.serve\\.requests{path=")

# Time-series store self-metrics (src/obs/tsdb.cpp): synced into the
# scraped registry on every scrape, so any replay run with --tsdb (the
# stream smoke test's default) must have exported them, with at least
# one sample stored.
set(FAILMINE_TSDB_REQUIRED_METRICS
  tsdb.samples
  tsdb.series
  tsdb.bytes
  tsdb.dropped
  tsdb.dropped_series)
set(FAILMINE_TSDB_SAMPLES_COUNTER tsdb.samples)

# Exact exported spellings of the per-endpoint request counters the tsdb
# HTTP surface pre-registers at start() (the JSON export escapes the
# label quotes, hence the literal backslashes).
set(FAILMINE_SERVE_QUERY_REQUESTS_NAME
    "obs.serve.requests{path=\\\"/query\\\"}")
set(FAILMINE_SERVE_SERIES_REQUESTS_NAME
    "obs.serve.requests{path=\\\"/series\\\"}")
set(FAILMINE_SERVE_FLEET_REQUESTS_NAME
    "obs.serve.requests{path=\\\"/fleet\\\"}")

# Fleet-mode spellings: each twin's pipeline instruments carry the twin
# label inline (`stream.records_in{twin="t0"}` — quotes escaped in the
# JSON export). The check script derives the per-twin names from these
# family spellings, so the label convention lives in one place.
function(failmine_fleet_metric_name var family twin)
  set(${var} "${family}{twin=\\\"${twin}\\\"}" PARENT_SCOPE)
endfunction()

# Reads the export at `path` into `var`, failing if it is missing.
function(failmine_read_export var path)
  if(NOT path OR NOT EXISTS "${path}")
    message(FATAL_ERROR "metrics export missing: ${path}")
  endif()
  file(READ "${path}" content)
  set(${var} "${content}" PARENT_SCOPE)
endfunction()

# Asserts that `content` mentions every instrument named in ARGN.
function(failmine_require_metrics content)
  foreach(name ${ARGN})
    string(REPLACE "." "\\." pattern "${name}")
    if(NOT content MATCHES "\"${pattern}\":")
      message(FATAL_ERROR "metrics export lacks ${name}")
    endif()
  endforeach()
endfunction()

# Asserts that `content` mentions at least one instrument whose name
# starts with `prefix` (an escaped regex fragment — used for the inline
# label-block spelling, whose quotes are escaped in the JSON export).
function(failmine_require_metric_prefix content prefix)
  if(NOT content MATCHES "\"${prefix}")
    message(FATAL_ERROR "metrics export lacks any ${prefix} instrument")
  endif()
endfunction()

# Asserts that `content` contains `needle` verbatim (no regex) — used
# for the escaped inline-label spellings, which are painful as regexes.
function(failmine_require_substring content needle)
  string(FIND "${content}" "${needle}" found_at)
  if(found_at EQUAL -1)
    message(FATAL_ERROR "metrics export lacks ${needle}")
  endif()
endfunction()

# Extracts the integer value of instrument `name` from `content` into
# `var`, failing if the instrument is absent.
function(failmine_metric_value var content name)
  string(REPLACE "." "\\." pattern "${name}")
  if(NOT content MATCHES "\"${pattern}\":([0-9]+)")
    message(FATAL_ERROR "metrics export lacks ${name}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# Extracts the integer value of the instrument spelled exactly `name`
# into `var` — the labeled-spelling variant of failmine_metric_value.
# Inline label blocks are full of regex metacharacters (braces, escaped
# quotes), so this matches the literal name and parses the digits that
# follow it instead of building a pattern.
function(failmine_labeled_metric_value var content name)
  set(needle "\"${name}\":")
  string(FIND "${content}" "${needle}" found_at)
  if(found_at EQUAL -1)
    message(FATAL_ERROR "metrics export lacks ${name}")
  endif()
  string(LENGTH "${needle}" needle_len)
  math(EXPR value_at "${found_at} + ${needle_len}")
  string(SUBSTRING "${content}" ${value_at} 24 tail)
  if(NOT tail MATCHES "^([0-9]+)")
    message(FATAL_ERROR "metrics export has no integer value for ${name}")
  endif()
  set(${var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()
