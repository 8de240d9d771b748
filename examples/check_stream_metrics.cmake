# Validates the metrics export written by the example_cli_stream smoke
# test: the streaming pipeline must have accounted for every record
# (stream.records_in > 0) without loss (stream.records_dropped == 0),
# and published its gauges and latency histograms. The expected
# instrument names come from expected_metrics.cmake. Invoked as:
#   cmake -DMETRICS=... -P check_stream_metrics.cmake
# or, for the fleet-mode smoke test (stream --fleet N), as:
#   cmake -DMETRICS=... -DFLEET=N -P check_stream_metrics.cmake
# where every pipeline instrument must instead appear once per twin
# under its twin="t<i>" label and never under the bare family name. With
# --predict (the single-pipeline replay), stream.interruptions_opened
# must equal predict.interruptions.

include("${CMAKE_CURRENT_LIST_DIR}/expected_metrics.cmake")

failmine_read_export(metrics_json "${METRICS}")

if(FLEET)
  # Fleet replay: per-twin label-disambiguated accounting. Each twin
  # must have streamed records under its own label without loss...
  math(EXPR fleet_last "${FLEET} - 1")
  foreach(i RANGE ${fleet_last})
    failmine_fleet_metric_name(in_name "${FAILMINE_STREAM_IN_COUNTER}" "t${i}")
    failmine_labeled_metric_value(twin_in "${metrics_json}" "${in_name}")
    if(twin_in EQUAL 0)
      message(FATAL_ERROR "${in_name} is 0 — twin t${i} streamed nothing")
    endif()
    failmine_fleet_metric_name(dropped_name
                               "${FAILMINE_STREAM_DROPPED_COUNTER}" "t${i}")
    failmine_labeled_metric_value(twin_dropped "${metrics_json}"
                                  "${dropped_name}")
    if(NOT twin_dropped EQUAL 0)
      message(FATAL_ERROR "${dropped_name}=${twin_dropped} under the "
                          "blocking policy")
    endif()
    foreach(family ${FAILMINE_STREAM_REQUIRED_GAUGES}
                   ${FAILMINE_STREAM_REQUIRED_HISTOGRAMS}
                   stream.window.failure_rate)
      failmine_fleet_metric_name(name "${family}" "t${i}")
      failmine_require_substring("${metrics_json}" "${name}")
    endforeach()
    failmine_fleet_metric_name(opened_name
                               "${FAILMINE_STREAM_INTERRUPTIONS_COUNTER}"
                               "t${i}")
    failmine_labeled_metric_value(twin_opened "${metrics_json}"
                                  "${opened_name}")
    if(twin_opened EQUAL 0)
      message(FATAL_ERROR "${opened_name} is 0 — twin t${i} opened no "
                          "interruption")
    endif()
  endforeach()
  # ...and the bare family spellings must be absent: the twin label is
  # the isolation mechanism, not decoration on top of shared counters.
  foreach(family ${FAILMINE_STREAM_IN_COUNTER}
                 ${FAILMINE_STREAM_DROPPED_COUNTER}
                 ${FAILMINE_STREAM_INTERRUPTIONS_COUNTER}
                 ${FAILMINE_STREAM_REQUIRED_GAUGES})
    string(REPLACE "." "\\." pattern "${family}")
    if(metrics_json MATCHES "\"${pattern}\":")
      message(FATAL_ERROR "fleet export has bare ${family} — twin labels "
                          "are not isolating the pipelines")
    endif()
  endforeach()

  # The fleet replay runs with --serve (including the pre-registered
  # /fleet route counter), --tsdb and the built-in per-twin alert rules.
  failmine_require_metrics("${metrics_json}"
    ${FAILMINE_SERVE_REQUIRED_COUNTERS}
    ${FAILMINE_SERVE_REQUIRED_HISTOGRAMS}
    ${FAILMINE_ALERTS_REQUIRED_METRICS}
    ${FAILMINE_PROCESS_REQUIRED_GAUGES}
    ${FAILMINE_TSDB_REQUIRED_METRICS})
  failmine_require_substring("${metrics_json}"
    "${FAILMINE_SERVE_FLEET_REQUESTS_NAME}")
  failmine_metric_value(tsdb_samples "${metrics_json}"
                        "${FAILMINE_TSDB_SAMPLES_COUNTER}")
  if(tsdb_samples EQUAL 0)
    message(FATAL_ERROR "${FAILMINE_TSDB_SAMPLES_COUNTER} is 0 — the "
                        "scraper never stored a sample")
  endif()
  message(STATUS "fleet metrics OK: ${FLEET} twins isolated, no drops")
  return()
endif()

failmine_metric_value(records_in "${metrics_json}"
                      "${FAILMINE_STREAM_IN_COUNTER}")
if(records_in EQUAL 0)
  message(FATAL_ERROR "${FAILMINE_STREAM_IN_COUNTER} is 0 — nothing was "
                      "streamed")
endif()

failmine_metric_value(dropped "${metrics_json}"
                      "${FAILMINE_STREAM_DROPPED_COUNTER}")
if(NOT dropped EQUAL 0)
  message(FATAL_ERROR "${FAILMINE_STREAM_DROPPED_COUNTER}=${dropped} under "
                      "the blocking policy")
endif()

failmine_require_metrics("${metrics_json}"
  ${FAILMINE_STREAM_REQUIRED_GAUGES}
  ${FAILMINE_STREAM_REQUIRED_HISTOGRAMS}
  ${FAILMINE_GROUPBY_REQUIRED_COUNTERS})

# The replay runs with --serve, so the server's pre-registered
# self-metrics (request counters, latency histogram, profiler counters
# and the per-path label family) must all be in the export too.
failmine_require_metrics("${metrics_json}"
  ${FAILMINE_SERVE_REQUIRED_COUNTERS}
  ${FAILMINE_SERVE_REQUIRED_HISTOGRAMS})
failmine_require_metric_prefix("${metrics_json}"
  "${FAILMINE_SERVE_LABELED_REQUESTS_PREFIX}")

# The replay runs with --predict, so the prediction subsystem's
# instruments must be present and the operator must have observed every
# routed record.
failmine_require_metrics("${metrics_json}"
  ${FAILMINE_PREDICT_REQUIRED_COUNTERS}
  ${FAILMINE_PREDICT_REQUIRED_HISTOGRAMS})
failmine_metric_value(predict_records "${metrics_json}"
                      "${FAILMINE_PREDICT_RECORDS_COUNTER}")
if(predict_records EQUAL 0)
  message(FATAL_ERROR "${FAILMINE_PREDICT_RECORDS_COUNTER} is 0 — the "
                      "predictor never observed a record")
endif()
# The predictor reads the router's similarity filter, so each
# interruption is counted once, and both counters agree.
failmine_metric_value(opened "${metrics_json}"
                      "${FAILMINE_STREAM_INTERRUPTIONS_COUNTER}")
failmine_metric_value(predicted "${metrics_json}"
                      "${FAILMINE_PREDICT_INTERRUPTIONS_COUNTER}")
if(opened EQUAL 0 OR NOT opened EQUAL predicted)
  message(FATAL_ERROR "${FAILMINE_STREAM_INTERRUPTIONS_COUNTER}=${opened} "
                      "but ${FAILMINE_PREDICT_INTERRUPTIONS_COUNTER}="
                      "${predicted}: want one non-zero count per interruption")
endif()

# The replay runs with --tsdb, so the store's self-metrics must be in
# the export with at least one stored sample, and the /query + /series
# per-endpoint request counters must have been pre-registered.
failmine_require_metrics("${metrics_json}" ${FAILMINE_TSDB_REQUIRED_METRICS})
failmine_metric_value(tsdb_samples "${metrics_json}"
                      "${FAILMINE_TSDB_SAMPLES_COUNTER}")
if(tsdb_samples EQUAL 0)
  message(FATAL_ERROR "${FAILMINE_TSDB_SAMPLES_COUNTER} is 0 — the scraper "
                      "never stored a sample")
endif()
failmine_require_substring("${metrics_json}"
  "${FAILMINE_SERVE_QUERY_REQUESTS_NAME}")
failmine_require_substring("${metrics_json}"
  "${FAILMINE_SERVE_SERIES_REQUESTS_NAME}")

# Causal tracing is on by default and the alert engine runs the built-in
# rules, so their instruments (and the process gauges every export
# refreshes) must be present too. The sampled counter must be non-zero:
# the replay is far longer than the sampling period.
failmine_require_metrics("${metrics_json}"
  ${FAILMINE_CAUSAL_REQUIRED_HISTOGRAMS}
  ${FAILMINE_ALERTS_REQUIRED_METRICS}
  ${FAILMINE_PROCESS_REQUIRED_GAUGES})
failmine_metric_value(traces_sampled "${metrics_json}"
                      "${FAILMINE_CAUSAL_SAMPLED_COUNTER}")
if(traces_sampled EQUAL 0)
  message(FATAL_ERROR "${FAILMINE_CAUSAL_SAMPLED_COUNTER} is 0 — causal "
                      "sampling never fired over the replay")
endif()

message(STATUS "stream metrics OK: records_in=${records_in}, no drops")
