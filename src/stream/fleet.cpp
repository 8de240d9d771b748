#include "stream/fleet.hpp"

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "util/error.hpp"

namespace failmine::stream {

std::string StreamFleet::twin_name(std::size_t i) {
  // Appended, not `"t" + std::to_string(i)`: GCC 12's -Wrestrict fires
  // inside libstdc++'s operator+ at -O3.
  std::string name(1, 't');
  name += std::to_string(i);
  return name;
}

StreamFleet::StreamFleet(FleetConfig config) : config_(std::move(config)) {
  if (config_.twin_count == 0)
    throw failmine::DomainError("FleetConfig.twin_count must be positive");
  twins_.reserve(config_.twin_count);
  for (std::size_t i = 0; i < config_.twin_count; ++i) {
    StreamConfig twin_config = config_.base;
    twin_config.twin = twin_name(i);
    // The first twin arms the process-wide causal tracer; the rest must
    // not reconfigure it while twin 0's threads are already stamping.
    twin_config.configure_tracer = i == 0;
    twins_.push_back(std::make_unique<StreamPipeline>(twin_config));
  }
  obs::logger().info(
      "stream.fleet_started",
      {obs::Field("twins", static_cast<std::int64_t>(config_.twin_count)),
       obs::Field("shards_per_twin",
                  static_cast<std::int64_t>(config_.base.shard_count))});
}

StreamFleet::~StreamFleet() { finish(); }

void StreamFleet::finish() {
  for (auto& twin : twins_) twin->finish();
}

bool StreamFleet::healthy() const {
  for (const auto& twin : twins_)
    if (!twin->healthy()) return false;
  return true;
}

SpaceSavingSketch StreamFleet::merged_users_by_failures() const {
  SpaceSavingSketch merged(config_.base.heavy_hitter_capacity);
  for (const auto& twin : twins_)
    merged.merge(twin->users_by_failures_sketch());
  return merged;
}

std::string StreamFleet::fleet_json() const {
  std::string out = "{\"twins\":[";
  std::uint64_t records_in = 0, records_processed = 0, records_dropped = 0;
  std::size_t healthy_twins = 0;
  for (std::size_t i = 0; i < twins_.size(); ++i) {
    const StreamSnapshot snap = twins_[i]->snapshot();
    const bool twin_healthy = twins_[i]->healthy();
    records_in += snap.records_in;
    records_processed += snap.records_processed;
    records_dropped += snap.records_dropped;
    if (twin_healthy) ++healthy_twins;
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    obs::append_json_string(out, twin_name(i));
    out += std::string(",\"healthy\":") + (twin_healthy ? "true" : "false");
    out += std::string(",\"finished\":") + (snap.finished ? "true" : "false");
    out += ",\"records_in\":" + std::to_string(snap.records_in);
    out += ",\"records_processed\":" + std::to_string(snap.records_processed);
    out += ",\"records_dropped\":" + std::to_string(snap.records_dropped);
    out += ",\"queue_depth\":" + std::to_string(snap.queue_depth);
    out += ",\"watermark\":" + std::to_string(snap.watermark);
    out += ",\"window_jobs\":" + std::to_string(snap.window_jobs);
    out += ",\"window_failures\":" + std::to_string(snap.window_failures);
    out += ",\"window_failure_rate\":" +
           obs::json_number(snap.window_failure_rate);
    out += ",\"interruptions\":" + std::to_string(snap.interruptions);
    out.push_back('}');
  }
  out += "],\"fleet\":{\"twin_count\":" + std::to_string(twins_.size());
  out += ",\"healthy_twins\":" + std::to_string(healthy_twins);
  out += ",\"records_in\":" + std::to_string(records_in);
  out += ",\"records_processed\":" + std::to_string(records_processed);
  out += ",\"records_dropped\":" + std::to_string(records_dropped);
  const SpaceSavingSketch merged = merged_users_by_failures();
  out += ",\"heavy_hitter_error_bound\":" +
         std::to_string(merged.error_bound());
  out += ",\"top_users_by_failures\":[";
  const auto top = merged.top(10);
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"user\":" + std::to_string(top[i].key);
    out += ",\"count\":" + std::to_string(top[i].count);
    out += ",\"error\":" + std::to_string(top[i].error);
    out.push_back('}');
  }
  out += "]}}\n";
  return out;
}

}  // namespace failmine::stream
