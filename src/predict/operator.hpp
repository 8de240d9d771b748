// failmine/predict/operator.hpp
//
// PredictOperator: the failure-prediction subsystem as a pipeline
// plug-in.
//
//                        router thread (watermark order)
//                                    |
//                            PredictOperator
//                   .----------------+----------------.
//                   |                |                |
//             PrecursorMiner   JobRiskScorer   CheckpointPolicy
//             (RAS WARNs vs    (task stream +  (running hazard +
//              fatal clusters,  pressure maps   interval sketch ->
//              alerts, lead     + user history  per-job intervals,
//              times)           -> risk score)  3-way cost ledger)
//
// Wiring per record source:
//   RAS    -> miner (alerts, lead times); WARNs bump the per-midplane
//             warn-pressure map; the pipeline filter's cluster opens
//             also feed the policy's interval sketch and the
//             location-health map.
//   task   -> risk scorer's live-job table (decayed failed-task score,
//             online flagging).
//   job    -> scored: risk assessment at end time, policy decision from
//             risk multiplier + running hazard, then (strictly after
//             scoring) ground-truth accounting, user history and hazard
//             exposure updates.
//
// Registers predict.* instruments in the obs registry (counters
// predict.records/warns/interruptions/alerts/jobs_scored, histograms
// predict.lead_time_s / predict.risk_score / predict.flag_lead_s).
//
// Threading: driven entirely under the pipeline's router mutex (see
// stream/router_operator.hpp). Use
// StreamPipeline::operator_snapshot_json() for live reads; direct calls
// are safe once the pipeline has finished.

#pragma once

#include "obs/metrics.hpp"
#include "predict/config.hpp"
#include "predict/policy.hpp"
#include "predict/precursor.hpp"
#include "predict/risk.hpp"
#include "predict/snapshot.hpp"
#include "stream/record.hpp"
#include "stream/router_operator.hpp"

namespace failmine::predict {

class PredictOperator : public stream::RouterOperator {
 public:
  explicit PredictOperator(PredictConfig config);

  void observe(const stream::StreamRecord& record,
               bool opened_interruption) override;
  void finish() override;
  std::string section_name() const override { return "predict"; }
  std::string snapshot_json() const override { return snapshot().to_json(); }

  /// Typed snapshot (same data as the JSON form).
  PredictSnapshot snapshot() const;

  const PredictConfig& config() const { return config_; }
  const PrecursorMiner& miner() const { return miner_; }
  const JobRiskScorer& scorer() const { return scorer_; }
  const CheckpointPolicy& policy() const { return policy_; }

 private:
  void drain_new_leads();

  PredictConfig config_;
  PrecursorMiner miner_;
  JobRiskScorer scorer_;
  UserHistory users_;
  LocationPressure warn_pressure_;
  LocationPressure health_;
  CheckpointPolicy policy_;

  std::uint64_t records_ = 0;
  std::uint64_t unflushed_records_ = 0;  ///< batched predict.records adds
  util::UnixSeconds watermark_ = 0;  ///< newest event time observed
  std::size_t leads_observed_ = 0;   ///< histogram high-water mark
  bool finished_ = false;

  obs::Counter* records_counter_;
  obs::Counter* warns_counter_;
  obs::Counter* interruptions_counter_;
  obs::Counter* alerts_counter_;
  obs::Counter* jobs_scored_counter_;
  obs::Histogram* lead_time_hist_;
  obs::Histogram* risk_hist_;
  obs::Histogram* flag_lead_hist_;
};

}  // namespace failmine::predict
