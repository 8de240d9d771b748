// failmine/stream/router_operator.hpp
//
// Extension point for order-sensitive operators that are composed into
// the pipeline from outside the stream library (the failure predictor in
// src/predict is the first user). The router calls observe() for every
// record *after* watermark reordering, so an operator sees the exact
// event-time order a batch pass over the same records would — the basis
// for the batch/stream parity guarantees downstream subsystems rely on.
// Each record comes with the router's similarity-filter verdict, so an
// operator reads the pipeline's interruptions instead of clustering again.
//
// Threading contract: observe(), finish() and snapshot_json() are all
// invoked under the pipeline's router mutex (observe/finish from the
// router thread, snapshot_json from whichever thread asks for a
// snapshot), so implementations need no internal synchronization as long
// as they are only touched through the pipeline. Use
// StreamPipeline::operator_snapshot_json() for live access from other
// threads; direct method calls are only safe once finish() has returned.

#pragma once

#include <string>

namespace failmine::stream {

struct StreamRecord;

class RouterOperator {
 public:
  virtual ~RouterOperator() = default;

  /// One record in watermark (event-time) order. `opened_interruption`
  /// is true when it opened a cluster in the router's similarity filter
  /// (StreamConfig::filter).
  virtual void observe(const StreamRecord& record,
                       bool opened_interruption) = 0;

  /// End of stream: flush any pending windows so the next snapshot is
  /// exact. Called once, after the reorder buffer has drained.
  virtual void finish() = 0;

  /// Key under which snapshot_json() is spliced into StreamSnapshot's
  /// JSON (must be a valid, unique JSON key).
  virtual std::string section_name() const = 0;

  /// Point-in-time state as one JSON object (no trailing newline).
  virtual std::string snapshot_json() const = 0;
};

}  // namespace failmine::stream
