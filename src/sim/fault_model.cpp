#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "raslog/message_catalog.hpp"
#include "util/error.hpp"

namespace failmine::sim {

using joblog::ExitClass;
using raslog::MessageDef;
using raslog::Severity;
using topology::Level;
using topology::Location;
using util::UnixSeconds;

FaultModel::FaultModel(const SimConfig& config, util::Rng& rng)
    : config_(config) {
  config.validate();
  const auto& m = config.machine;
  const std::uint64_t total_boards =
      static_cast<std::uint64_t>(m.racks()) *
      static_cast<std::uint64_t>(m.midplanes_per_rack) *
      static_cast<std::uint64_t>(m.boards_per_midplane);
  std::size_t weak_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.weak_board_fraction *
                                  static_cast<double>(total_boards)));
  // Sample distinct boards (total_boards >> weak_count, so retry loops
  // terminate immediately in practice).
  while (weak_boards_.size() < weak_count) {
    const Location board = random_board(rng);
    if (std::find(weak_boards_.begin(), weak_boards_.end(), board) ==
        weak_boards_.end())
      weak_boards_.push_back(board);
  }
}

Location FaultModel::random_board(util::Rng& rng) const {
  const auto& m = config_.machine;
  const int rack =
      static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(m.racks())));
  return Location::rack(rack / m.rack_columns, rack % m.rack_columns)
      .with_midplane(static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(m.midplanes_per_rack))))
      .with_board(static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(m.boards_per_midplane))));
}

Location FaultModel::locality_board(util::Rng& rng) const {
  if (rng.bernoulli(config_.weak_board_event_share))
    return weak_boards_[rng.uniform_index(weak_boards_.size())];
  return random_board(rng);
}

Location FaultModel::at_level(const Location& board, Level level,
                              util::Rng& rng) const {
  const auto& m = config_.machine;
  switch (level) {
    case Level::kRack:
      return board.ancestor(Level::kRack);
    case Level::kMidplane:
      return board.ancestor(Level::kMidplane);
    case Level::kNodeBoard:
      return board;
    case Level::kComputeCard:
      return board.with_card(static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(m.cards_per_board))));
    case Level::kCore:
      return board
          .with_card(static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(m.cards_per_board))))
          .with_core(static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(m.cores_per_node))));
  }
  throw failmine::DomainError("unknown level");
}

std::vector<FatalEpisode> FaultModel::apply_system_failures(
    std::vector<joblog::JobRecord>& jobs, util::Rng& rng) const {
  std::vector<FatalEpisode> episodes;

  // 1. Job-exposure conversions.
  for (auto& job : jobs) {
    const double exposure = static_cast<double>(job.nodes_used) *
                            static_cast<double>(job.runtime_seconds());
    const double p_hit =
        1.0 - std::exp(-config_.system_hazard_per_node_second * exposure);
    if (!rng.bernoulli(p_hit)) continue;

    // Interruption interval ~ inverse Gaussian within the job's window.
    const double planned = static_cast<double>(job.runtime_seconds());
    double t_int = rng.inverse_gaussian(0.45 * planned, 0.9 * planned);
    t_int = std::clamp(t_int, 30.0, std::max(31.0, planned - 1.0));
    job.end_time = job.start_time + static_cast<UnixSeconds>(t_int);

    const std::size_t cls = rng.categorical({config_.system_hardware_weight,
                                             config_.system_software_weight,
                                             config_.system_io_weight});
    job.exit_class = cls == 0   ? ExitClass::kSystemHardware
                     : cls == 1 ? ExitClass::kSystemSoftware
                                : ExitClass::kSystemIo;
    job.exit_code = cls == 0 ? 139 : 135;
    job.exit_signal = cls == 0 ? 7 : 11;  // SIGBUS / SIGSEGV

    // Episode on a board inside the job's partition (weak boards are
    // likelier to be the culprit when the partition contains one).
    const auto partition = job.partition(config_.machine);
    Location board = random_board(rng);
    for (int attempt = 0; attempt < 64; ++attempt) {
      board = locality_board(rng);
      if (partition.covers(board, config_.machine)) break;
      // Fall back to any board within the partition.
      if (attempt == 63) {
        const auto mids = partition.midplanes(config_.machine);
        const Location mid = mids[rng.uniform_index(mids.size())];
        board = mid.with_board(static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(config_.machine.boards_per_midplane))));
      }
    }
    episodes.push_back(FatalEpisode{job.end_time, board, job.job_id});
  }

  // 2. Idle-hardware episodes (rate scales with the trace).
  const double idle_rate_per_sec =
      config_.idle_fatal_episodes_per_day * config_.scale / 86400.0;
  if (idle_rate_per_sec > 0) {
    UnixSeconds t = config_.observation_start;
    const UnixSeconds end = config_.observation_end();
    for (;;) {
      t += static_cast<UnixSeconds>(
          std::max(1.0, rng.exponential(idle_rate_per_sec)));
      if (t >= end) break;
      episodes.push_back(FatalEpisode{t, locality_board(rng), std::nullopt});
    }
  }

  std::sort(episodes.begin(), episodes.end(),
            [](const FatalEpisode& a, const FatalEpisode& b) {
              return a.time < b.time;
            });
  return episodes;
}

namespace {

/// One event as generate_events draws it: the catalog entry stands in for
/// the message id and text, so the draws sort as 32-byte records.
struct EventDraw {
  UnixSeconds time = 0;
  std::uint64_t job_id = 0;  ///< meaningful only when has_job
  std::uint16_t def = 0;     ///< index into raslog::message_catalog()
  Location location = Location::rack(0, 0);
  bool has_job = false;
};
static_assert(sizeof(EventDraw) == 32, "EventDraw is the sorted record");

}  // namespace

std::vector<raslog::RasEvent> FaultModel::generate_events(
    const std::vector<FatalEpisode>& episodes, util::Rng& rng) const {
  // Partition the catalog by severity once.
  const std::span<const MessageDef> catalog = raslog::message_catalog();
  std::vector<std::uint16_t> background_defs;
  std::vector<double> background_weights;
  std::vector<std::uint16_t> fatal_defs;
  std::vector<double> fatal_weights;
  std::vector<std::uint16_t> warn_defs;
  std::vector<double> warn_weights;
  for (std::size_t d = 0; d < catalog.size(); ++d) {
    const MessageDef& def = catalog[d];
    const auto index = static_cast<std::uint16_t>(d);
    if (def.severity == Severity::kFatal) {
      fatal_defs.push_back(index);
      fatal_weights.push_back(def.rate_weight);
    } else {
      background_defs.push_back(index);
      background_weights.push_back(def.rate_weight);
      if (def.severity == Severity::kWarn) {
        warn_defs.push_back(index);
        warn_weights.push_back(def.rate_weight);
      }
    }
  }
  const util::AliasTable background_table(background_weights);
  const util::AliasTable fatal_table(fatal_weights);
  const util::AliasTable warn_table(warn_weights);

  const double bg_rate_per_sec =
      config_.ras_background_per_day * config_.scale / 86400.0;
  const UnixSeconds end = config_.observation_end();
  // Room for the expected count and a margin, so the draws are never
  // copied as they grow.
  const auto expected = static_cast<std::size_t>(
      bg_rate_per_sec * static_cast<double>(end - config_.observation_start) +
      static_cast<double>(episodes.size()) *
          (config_.fatal_events_per_episode + 3.0));
  std::vector<EventDraw> draws;
  draws.reserve(expected + expected / 32 + 1024);

  auto emit = [&](std::uint16_t def, UnixSeconds time, const Location& board) {
    draws.push_back(
        EventDraw{time, 0, def, at_level(board, catalog[def].level, rng)});
  };

  // 1. Background chatter: one homogeneous Poisson stream, message type
  // drawn per event from the catalog weights, location from the locality
  // mixture.
  UnixSeconds t = config_.observation_start;
  while (bg_rate_per_sec > 0) {
    t += static_cast<UnixSeconds>(
        std::max(1.0, rng.exponential(bg_rate_per_sec)));
    if (t >= end) break;
    const std::uint16_t def = background_defs[background_table.sample(rng)];
    emit(def, t, locality_board(rng));
  }

  // 2. Episode bursts: clustered FATALs plus precursor WARNs.
  for (const FatalEpisode& ep : episodes) {
    const std::uint64_t n_fatal =
        1 + rng.poisson(std::max(0.0, config_.fatal_events_per_episode - 1.0));
    for (std::uint64_t i = 0; i < n_fatal; ++i) {
      const std::uint16_t def = fatal_defs[fatal_table.sample(rng)];
      // The initial event fires exactly at the episode instant on the
      // origin board (it is what killed the job); the rest of the burst
      // trails it. 75 % of the burst stays on the origin board; the rest
      // spills into sibling boards of the same midplane (cable/power
      // neighbourhood).
      const UnixSeconds offset =
          i == 0 ? 0
                 : static_cast<UnixSeconds>(rng.exponential(
                       1.0 / config_.episode_duration_seconds));
      Location board = ep.origin;
      if (i != 0 && !rng.bernoulli(0.75)) {
        board = ep.origin.ancestor(Level::kMidplane)
                    .with_board(static_cast<int>(rng.uniform_index(
                        static_cast<std::uint64_t>(
                            config_.machine.boards_per_midplane))));
      }
      emit(def, ep.time + offset, board);
      if (ep.victim_job && i == 0) {
        draws.back().job_id = *ep.victim_job;
        draws.back().has_job = true;
      }
    }
    // Precursor warnings in the minutes before the episode.
    const std::uint64_t n_warn = rng.poisson(3.0);
    for (std::uint64_t i = 0; i < n_warn; ++i) {
      const std::uint16_t def = warn_defs[warn_table.sample(rng)];
      const UnixSeconds lead = static_cast<UnixSeconds>(
          rng.exponential(1.0 / (2.0 * config_.episode_duration_seconds)));
      const UnixSeconds when = ep.time > lead ? ep.time - lead : ep.time;
      emit(def, when, ep.origin);
    }
  }

  // std::sort, not std::stable_sort: the trace has events with equal
  // times, and their order is the one std::sort gives this comparator on
  // this draw order (the logs' bytes are pinned to it).
  std::sort(draws.begin(), draws.end(),
            [](const EventDraw& a, const EventDraw& b) {
              return a.time < b.time;
            });

  std::vector<raslog::RasEvent> events;
  events.reserve(draws.size());
  for (const EventDraw& d : draws) {
    const MessageDef& def = catalog[d.def];
    raslog::RasEvent& e = events.emplace_back();
    e.record_id = events.size();
    e.timestamp = d.time;
    e.message_id = def.id;
    e.severity = def.severity;
    e.component = def.component;
    e.category = def.category;
    e.location = d.location;
    if (d.has_job) e.job_id = d.job_id;
    // A new string has exactly the text's capacity; assigning into the
    // empty one would round texts of 16 to 29 bytes up to 30.
    e.text = std::string(def.text);
  }
  return events;
}

}  // namespace failmine::sim
