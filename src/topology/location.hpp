// failmine/topology/location.hpp
//
// BG/Q hardware location codes.
//
// RAS events carry a location string identifying the failing component at
// a variable depth of the hardware hierarchy:
//   "R17"              - a rack (row 1, column 7 hex)
//   "R17-M0"           - a midplane
//   "R17-M0-N09"       - a node board
//   "R17-M0-N09-J23"   - a compute card (one node)
//   "R17-M0-N09-J23-C05" - a core on that node
// The similarity-based filter and the locality analysis both reason about
// containment ("are these two events on the same node board?"), which this
// class provides, along with exact parse/format round-tripping.

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "topology/machine.hpp"

namespace failmine::topology {

/// Depth of a location within the hardware hierarchy.
enum class Level : std::uint8_t {
  kRack,
  kMidplane,
  kNodeBoard,
  kComputeCard,
  kCore,
};

/// Human-readable level name ("rack", "midplane", ...).
std::string level_name(Level level);

/// A parsed hardware location at some level of the hierarchy.
class Location {
 public:
  /// Builds a rack-level location.
  static Location rack(int row, int column);

  /// Extends with deeper components. Each throws DomainError if out of
  /// range for the supplied config (checked at parse/validate time).
  Location with_midplane(int midplane) const;
  Location with_board(int board) const;
  Location with_card(int card) const;
  Location with_core(int core) const;

  /// Parses a location string. Throws ParseError on malformed input and
  /// DomainError if a component is out of range for `config`.
  static Location parse(std::string_view text, const MachineConfig& config);

  /// Most bytes append_to writes ("R17-M0-N09-J23-C05").
  static constexpr std::size_t kMaxChars = 18;

  /// Writes the canonical string at `out`, which has room for kMaxChars
  /// bytes, and returns the end.
  char* append_to(char* out) const;

  /// Formats back to the canonical string (append_to into a string).
  std::string to_string() const;

  Level level() const { return level_; }
  int rack_row() const { return rack_row_; }
  int rack_column() const { return rack_column_; }
  int rack_index(const MachineConfig& config) const;
  int midplane() const;  ///< throws if level < midplane
  int board() const;     ///< throws if level < node board
  int card() const;      ///< throws if level < compute card
  int core() const;      ///< throws if level < core

  /// True if `other` is at or below this location in the hierarchy
  /// (a location contains itself).
  bool contains(const Location& other) const;

  /// Truncates to a shallower (or equal) level.
  Location ancestor(Level level) const;

  /// The deepest level at which the two locations agree, if they share a
  /// rack at all.
  std::optional<Level> common_level(const Location& other) const;

  /// The spatial predicate of the similarity filter, the precursor
  /// search and the co-occurrence study: the two share an ancestor at
  /// `radius` or deeper. A location shallower than `radius` covers
  /// everything beneath it, so the requirement relaxes to
  /// min(radius, level(), other.level()).
  bool near(const Location& other, Level radius) const;

  /// Node index of a card-or-deeper location in the linearized machine.
  NodeIndex node_index(const MachineConfig& config) const;

  /// Builds a card-level location from a node index.
  static Location from_node_index(NodeIndex node, const MachineConfig& config);

  friend bool operator==(const Location&, const Location&) = default;
  friend std::strong_ordering operator<=>(const Location&, const Location&) = default;

 private:
  Location() = default;

  Level level_ = Level::kRack;
  std::uint8_t rack_row_ = 0;
  std::uint8_t rack_column_ = 0;
  std::uint8_t midplane_ = 0;
  std::uint8_t board_ = 0;
  std::uint8_t card_ = 0;
  std::uint8_t core_ = 0;
};

// The columnar RAS table stores one Location per row (~480 k rows at
// scale 0.1) in place of a dictionary of location strings; at 7 bytes a
// row costs less than a u32 code plus its share of that dictionary.
static_assert(sizeof(Location) == 7,
              "Location is a per-row column: keep it at 7 bytes");

}  // namespace failmine::topology
