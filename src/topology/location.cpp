#include "topology/location.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace failmine::topology {

namespace {

int hex_digit_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  throw failmine::ParseError(std::string("bad hex digit '") + c + "' in location");
}

char hex_digit_char(int v) {
  return v < 10 ? static_cast<char>('0' + v) : static_cast<char>('A' + v - 10);
}

int parse_two_digits(std::string_view part, char tag) {
  if (part.size() != 3 || part[0] != tag || part[1] < '0' || part[1] > '9' ||
      part[2] < '0' || part[2] > '9')
    throw failmine::ParseError("bad location component '" + std::string(part) + "'");
  return (part[1] - '0') * 10 + (part[2] - '0');
}

}  // namespace

std::string level_name(Level level) {
  switch (level) {
    case Level::kRack: return "rack";
    case Level::kMidplane: return "midplane";
    case Level::kNodeBoard: return "node_board";
    case Level::kComputeCard: return "compute_card";
    case Level::kCore: return "core";
  }
  throw failmine::DomainError("unknown level");
}

Location Location::rack(int row, int column) {
  if (row < 0 || row > 9 || column < 0 || column > 15)
    throw failmine::DomainError("rack row/column out of representable range");
  Location loc;
  loc.level_ = Level::kRack;
  loc.rack_row_ = static_cast<std::uint8_t>(row);
  loc.rack_column_ = static_cast<std::uint8_t>(column);
  return loc;
}

Location Location::with_midplane(int midplane) const {
  if (level_ != Level::kRack)
    throw failmine::DomainError("with_midplane requires a rack-level location");
  if (midplane < 0 || midplane > 9)
    throw failmine::DomainError("midplane out of representable range");
  Location loc = *this;
  loc.level_ = Level::kMidplane;
  loc.midplane_ = static_cast<std::uint8_t>(midplane);
  return loc;
}

Location Location::with_board(int board) const {
  if (level_ != Level::kMidplane)
    throw failmine::DomainError("with_board requires a midplane-level location");
  if (board < 0 || board > 99)
    throw failmine::DomainError("board out of representable range");
  Location loc = *this;
  loc.level_ = Level::kNodeBoard;
  loc.board_ = static_cast<std::uint8_t>(board);
  return loc;
}

Location Location::with_card(int card) const {
  if (level_ != Level::kNodeBoard)
    throw failmine::DomainError("with_card requires a node-board-level location");
  if (card < 0 || card > 99)
    throw failmine::DomainError("card out of representable range");
  Location loc = *this;
  loc.level_ = Level::kComputeCard;
  loc.card_ = static_cast<std::uint8_t>(card);
  return loc;
}

Location Location::with_core(int core) const {
  if (level_ != Level::kComputeCard)
    throw failmine::DomainError("with_core requires a compute-card-level location");
  if (core < 0 || core > 99)
    throw failmine::DomainError("core out of representable range");
  Location loc = *this;
  loc.level_ = Level::kCore;
  loc.core_ = static_cast<std::uint8_t>(core);
  return loc;
}

Location Location::parse(std::string_view text, const MachineConfig& config) {
  // The '-'-separated parts, empty ones included ("R17-" has two). Six
  // slots suffice: a sixth part only means "too many components".
  std::array<std::string_view, 6> parts;
  std::size_t n_parts = 0;
  for (std::size_t start = 0;;) {
    const std::size_t dash = text.find('-', start);
    parts[n_parts++] = text.substr(start, dash - start);
    if (dash == std::string_view::npos || n_parts == parts.size()) break;
    start = dash + 1;
  }
  if (parts[0].empty()) throw failmine::ParseError("empty location string");

  // Rack part: R<row><col-hex>, e.g. "R17" or "R2F".
  const std::string_view r = parts[0];
  if (r.size() != 3 || r[0] != 'R' || r[1] < '0' || r[1] > '9')
    throw failmine::ParseError("bad rack component '" + std::string(r) + "'");
  const int row = r[1] - '0';
  const int col = hex_digit_value(r[2]);
  if (row >= config.rack_rows || col >= config.rack_columns)
    throw failmine::DomainError("rack " + std::string(r) + " outside machine");
  Location loc = rack(row, col);

  if (n_parts >= 2) {
    const std::string_view p = parts[1];
    if (p.size() != 2 || p[0] != 'M' || p[1] < '0' || p[1] > '9')
      throw failmine::ParseError("bad midplane component '" + std::string(p) +
                                 "'");
    const int m = p[1] - '0';
    if (m >= config.midplanes_per_rack)
      throw failmine::DomainError("midplane out of machine range");
    loc = loc.with_midplane(m);
  }
  if (n_parts >= 3) {
    const int n = parse_two_digits(parts[2], 'N');
    if (n >= config.boards_per_midplane)
      throw failmine::DomainError("node board out of machine range");
    loc = loc.with_board(n);
  }
  if (n_parts >= 4) {
    const int j = parse_two_digits(parts[3], 'J');
    if (j >= config.cards_per_board)
      throw failmine::DomainError("compute card out of machine range");
    loc = loc.with_card(j);
  }
  if (n_parts >= 5) {
    const int c = parse_two_digits(parts[4], 'C');
    if (c >= config.cores_per_node)
      throw failmine::DomainError("core out of machine range");
    loc = loc.with_core(c);
  }
  if (n_parts > 5)
    throw failmine::ParseError("location has too many components: '" +
                               std::string(text) + "'");
  return loc;
}

char* Location::append_to(char* out) const {
  // Each deeper component is a tag and two decimal digits ("-N09").
  const auto component = [&out](char tag, int v) {
    out[0] = '-';
    out[1] = tag;
    out[2] = static_cast<char>('0' + v / 10);
    out[3] = static_cast<char>('0' + v % 10);
    out += 4;
  };
  *out++ = 'R';
  *out++ = static_cast<char>('0' + rack_row_);
  *out++ = hex_digit_char(rack_column_);
  if (level_ == Level::kRack) return out;
  *out++ = '-';
  *out++ = 'M';
  *out++ = static_cast<char>('0' + midplane_);
  if (level_ == Level::kMidplane) return out;
  component('N', board_);
  if (level_ == Level::kNodeBoard) return out;
  component('J', card_);
  if (level_ == Level::kComputeCard) return out;
  component('C', core_);
  return out;
}

std::string Location::to_string() const {
  char buf[kMaxChars];
  return std::string(buf, append_to(buf));
}

int Location::rack_index(const MachineConfig& config) const {
  return rack_row_ * config.rack_columns + rack_column_;
}

int Location::midplane() const {
  if (level_ < Level::kMidplane)
    throw failmine::DomainError("location has no midplane component");
  return midplane_;
}

int Location::board() const {
  if (level_ < Level::kNodeBoard)
    throw failmine::DomainError("location has no board component");
  return board_;
}

int Location::card() const {
  if (level_ < Level::kComputeCard)
    throw failmine::DomainError("location has no card component");
  return card_;
}

int Location::core() const {
  if (level_ < Level::kCore)
    throw failmine::DomainError("location has no core component");
  return core_;
}

bool Location::contains(const Location& other) const {
  if (other.level_ < level_) return false;
  return other.ancestor(level_) == *this;
}

Location Location::ancestor(Level level) const {
  if (level > level_)
    throw failmine::DomainError("ancestor level deeper than location level");
  Location loc = *this;
  loc.level_ = level;
  if (level < Level::kCore) loc.core_ = 0;
  if (level < Level::kComputeCard) loc.card_ = 0;
  if (level < Level::kNodeBoard) loc.board_ = 0;
  if (level < Level::kMidplane) loc.midplane_ = 0;
  return loc;
}

std::optional<Level> Location::common_level(const Location& other) const {
  if (rack_row_ != other.rack_row_ || rack_column_ != other.rack_column_)
    return std::nullopt;
  Level best = Level::kRack;
  const Level max_level = std::min(level_, other.level_);
  if (max_level >= Level::kMidplane && midplane_ == other.midplane_) {
    best = Level::kMidplane;
    if (max_level >= Level::kNodeBoard && board_ == other.board_) {
      best = Level::kNodeBoard;
      if (max_level >= Level::kComputeCard && card_ == other.card_) {
        best = Level::kComputeCard;
        if (max_level >= Level::kCore && core_ == other.core_) best = Level::kCore;
      }
    }
  }
  return best;
}

bool Location::near(const Location& other, Level radius) const {
  const auto common = common_level(other);
  return common.has_value() &&
         *common >= std::min({radius, level_, other.level_});
}

NodeIndex Location::node_index(const MachineConfig& config) const {
  if (level_ < Level::kComputeCard)
    throw failmine::DomainError("node_index requires a card-level location");
  const std::uint32_t rack = static_cast<std::uint32_t>(rack_index(config));
  return rack * config.nodes_per_rack() +
         static_cast<std::uint32_t>(midplane_) * config.nodes_per_midplane() +
         static_cast<std::uint32_t>(board_) * config.nodes_per_board() +
         static_cast<std::uint32_t>(card_);
}

Location Location::from_node_index(NodeIndex node, const MachineConfig& config) {
  if (node >= config.total_nodes())
    throw failmine::DomainError("node index out of machine");
  const std::uint32_t per_rack = config.nodes_per_rack();
  const std::uint32_t per_mid = config.nodes_per_midplane();
  const std::uint32_t per_board = config.nodes_per_board();
  const int rack = static_cast<int>(node / per_rack);
  const std::uint32_t in_rack = node % per_rack;
  const int mid = static_cast<int>(in_rack / per_mid);
  const std::uint32_t in_mid = in_rack % per_mid;
  const int board = static_cast<int>(in_mid / per_board);
  const int card = static_cast<int>(in_mid % per_board);
  return Location::rack(rack / config.rack_columns, rack % config.rack_columns)
      .with_midplane(mid)
      .with_board(board)
      .with_card(card);
}

}  // namespace failmine::topology
