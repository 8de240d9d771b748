// Unit tests for topology/location: parsing, formatting, containment,
// node-index mapping.

#include "topology/location.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace failmine::topology {
namespace {

const MachineConfig kMira = MachineConfig::mira();

TEST(Location, ParseFormatsRoundTrip) {
  for (const char* s : {"R00", "R2F", "R17-M1", "R05-M0-N09",
                        "R13-M1-N15-J31", "R00-M0-N00-J00-C15"}) {
    EXPECT_EQ(Location::parse(s, kMira).to_string(), s);
  }
}

TEST(Location, ParseRejectsMalformedStrings) {
  EXPECT_THROW(Location::parse("", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("X00", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R0", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-Mx", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-M0-N1", kMira), failmine::ParseError);
  EXPECT_THROW(Location::parse("R00-M0-N01-J02-C03-X04", kMira),
               failmine::ParseError);
}

TEST(Location, ParseRejectsOutOfMachineComponents) {
  EXPECT_THROW(Location::parse("R30", kMira), failmine::DomainError);  // row 3
  EXPECT_THROW(Location::parse("R00-M2", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N16", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N00-J32", kMira), failmine::DomainError);
  EXPECT_THROW(Location::parse("R00-M0-N00-J00-C16", kMira),
               failmine::DomainError);
}

TEST(Location, ParseRejectionsKeepTheirErrorTexts) {
  // The exception type and the exact what() of every rejection, empty
  // and trailing parts included.
  enum class Kind { kParse, kDomain };
  struct Case {
    const char* code;
    Kind kind;
    const char* what;
  };
  const Case cases[] = {
      {"", Kind::kParse, "parse error: empty location string"},
      {"X00", Kind::kParse, "parse error: bad rack component 'X00'"},
      {"R0", Kind::kParse, "parse error: bad rack component 'R0'"},
      {"R00-Mx", Kind::kParse, "parse error: bad midplane component 'Mx'"},
      {"R00-M0-N1", Kind::kParse, "parse error: bad location component 'N1'"},
      {"R00-M0-N01-J02-C03-X04", Kind::kParse,
       "parse error: location has too many components: "
       "'R00-M0-N01-J02-C03-X04'"},
      {"R30", Kind::kDomain, "domain error: rack R30 outside machine"},
      {"R00-M2", Kind::kDomain, "domain error: midplane out of machine range"},
      {"R00-M0-N16", Kind::kDomain,
       "domain error: node board out of machine range"},
      {"R00-M0-N00-J32", Kind::kDomain,
       "domain error: compute card out of machine range"},
      {"R00-M0-N00-J00-C16", Kind::kDomain,
       "domain error: core out of machine range"},
      {"R17-", Kind::kParse, "parse error: bad midplane component ''"},
      {"-", Kind::kParse, "parse error: empty location string"},
      {"R17--M0", Kind::kParse, "parse error: bad midplane component ''"},
      {"R1G", Kind::kParse, "parse error: bad hex digit 'G' in location"},
      {"R00-M0-N00-J00-C00-", Kind::kParse,
       "parse error: location has too many components: "
       "'R00-M0-N00-J00-C00-'"},
  };
  for (const Case& c : cases) {
    try {
      Location::parse(c.code, kMira);
      ADD_FAILURE() << "accepted '" << c.code << "'";
    } catch (const failmine::ParseError& e) {
      EXPECT_EQ(c.kind, Kind::kParse) << c.code;
      EXPECT_STREQ(e.what(), c.what) << c.code;
    } catch (const failmine::DomainError& e) {
      EXPECT_EQ(c.kind, Kind::kDomain) << c.code;
      EXPECT_STREQ(e.what(), c.what) << c.code;
    }
  }
}

TEST(Location, EveryMiraCardAndCoreRoundTrips) {
  // Every rack, midplane, board and card of Mira, then every core of one
  // card: parse(to_string(loc)) == loc.
  const auto round_trips = [](const Location& loc) {
    return Location::parse(loc.to_string(), kMira) == loc;
  };
  for (int row = 0; row < kMira.rack_rows; ++row) {
    for (int column = 0; column < kMira.rack_columns; ++column) {
      const Location rack = Location::rack(row, column);
      ASSERT_TRUE(round_trips(rack)) << rack.to_string();
      for (int m = 0; m < kMira.midplanes_per_rack; ++m) {
        const Location midplane = rack.with_midplane(m);
        ASSERT_TRUE(round_trips(midplane)) << midplane.to_string();
        for (int b = 0; b < kMira.boards_per_midplane; ++b) {
          const Location board = midplane.with_board(b);
          ASSERT_TRUE(round_trips(board)) << board.to_string();
          for (int c = 0; c < kMira.cards_per_board; ++c) {
            const Location card = board.with_card(c);
            ASSERT_TRUE(round_trips(card)) << card.to_string();
          }
        }
      }
    }
  }
  const Location card = Location::parse("R2F-M1-N15-J31", kMira);
  for (int core = 0; core < kMira.cores_per_node; ++core) {
    const Location loc = card.with_core(core);
    ASSERT_TRUE(round_trips(loc)) << loc.to_string();
  }
}

TEST(Location, HexRackColumnsParse) {
  const Location loc = Location::parse("R2A", kMira);
  EXPECT_EQ(loc.rack_row(), 2);
  EXPECT_EQ(loc.rack_column(), 10);
  EXPECT_EQ(loc.rack_index(kMira), 2 * 16 + 10);
}

TEST(Location, LevelAccessorsValidateDepth) {
  const Location rack = Location::parse("R00", kMira);
  EXPECT_EQ(rack.level(), Level::kRack);
  EXPECT_THROW(rack.midplane(), failmine::DomainError);
  const Location card = Location::parse("R00-M1-N02-J03", kMira);
  EXPECT_EQ(card.midplane(), 1);
  EXPECT_EQ(card.board(), 2);
  EXPECT_EQ(card.card(), 3);
  EXPECT_THROW(card.core(), failmine::DomainError);
}

TEST(Location, ContainmentFollowsHierarchy) {
  const Location rack = Location::parse("R05", kMira);
  const Location mid = Location::parse("R05-M1", kMira);
  const Location board = Location::parse("R05-M1-N03", kMira);
  const Location card = Location::parse("R05-M1-N03-J07", kMira);
  const Location other = Location::parse("R06-M1-N03-J07", kMira);

  EXPECT_TRUE(rack.contains(card));
  EXPECT_TRUE(mid.contains(board));
  EXPECT_TRUE(board.contains(card));
  EXPECT_TRUE(card.contains(card));
  EXPECT_FALSE(card.contains(board));
  EXPECT_FALSE(rack.contains(other));
  EXPECT_FALSE(mid.contains(Location::parse("R05-M0", kMira)));
}

TEST(Location, AncestorTruncates) {
  const Location core = Location::parse("R11-M0-N14-J22-C09", kMira);
  EXPECT_EQ(core.ancestor(Level::kNodeBoard).to_string(), "R11-M0-N14");
  EXPECT_EQ(core.ancestor(Level::kRack).to_string(), "R11");
  EXPECT_EQ(core.ancestor(Level::kCore), core);
  const Location rack = Location::parse("R11", kMira);
  EXPECT_THROW(rack.ancestor(Level::kMidplane), failmine::DomainError);
}

TEST(Location, CommonLevel) {
  const Location a = Location::parse("R05-M1-N03-J07", kMira);
  const Location b = Location::parse("R05-M1-N03-J08", kMira);
  const Location c = Location::parse("R05-M0-N03-J07", kMira);
  const Location d = Location::parse("R06", kMira);
  EXPECT_EQ(a.common_level(b), Level::kNodeBoard);
  EXPECT_EQ(a.common_level(a), Level::kComputeCard);
  EXPECT_EQ(a.common_level(c), Level::kRack);
  EXPECT_EQ(a.common_level(d), std::nullopt);
}

TEST(Location, CommonLevelWithShallowLocation) {
  const Location card = Location::parse("R05-M1-N03-J07", kMira);
  const Location mid = Location::parse("R05-M1", kMira);
  EXPECT_EQ(card.common_level(mid), Level::kMidplane);
}

TEST(Location, NodeIndexRoundTrips) {
  for (NodeIndex n : {0u, 511u, 512u, 1024u, 49151u, 33333u}) {
    const Location loc = Location::from_node_index(n, kMira);
    EXPECT_EQ(loc.level(), Level::kComputeCard);
    EXPECT_EQ(loc.node_index(kMira), n);
  }
  EXPECT_THROW(Location::from_node_index(49152u, kMira), failmine::DomainError);
}

TEST(Location, NodeIndexRequiresCardDepth) {
  const Location board = Location::parse("R00-M0-N00", kMira);
  EXPECT_THROW(board.node_index(kMira), failmine::DomainError);
}

TEST(Location, NodeIndexLayoutIsHierarchical) {
  // First card of rack 1 comes right after the last card of rack 0.
  const Location last_r0 = Location::parse("R00-M1-N15-J31", kMira);
  const Location first_r1 = Location::parse("R01-M0-N00-J00", kMira);
  EXPECT_EQ(last_r0.node_index(kMira) + 1, first_r1.node_index(kMira));
}

TEST(Location, OrderingIsConsistent) {
  const Location a = Location::parse("R00-M0-N00-J00", kMira);
  const Location b = Location::parse("R00-M0-N00-J01", kMira);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, a);
}

TEST(LevelName, AllLevelsNamed) {
  EXPECT_EQ(level_name(Level::kRack), "rack");
  EXPECT_EQ(level_name(Level::kCore), "core");
}

}  // namespace
}  // namespace failmine::topology
