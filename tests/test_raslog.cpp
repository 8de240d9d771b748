// Unit tests for the raslog library: enum names, the message catalog's
// internal consistency, and RasLog container + CSV round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "raslog/event.hpp"
#include "raslog/message_catalog.hpp"
#include "util/error.hpp"

namespace failmine::raslog {
namespace {

const topology::MachineConfig kMira = topology::MachineConfig::mira();

TEST(SeverityNames, RoundTripAndAliases) {
  for (Severity s : kAllSeverities)
    EXPECT_EQ(severity_from_name(severity_name(s)), s);
  EXPECT_EQ(severity_from_name("warning"), Severity::kWarn);
  EXPECT_EQ(severity_from_name("fatal"), Severity::kFatal);
  EXPECT_THROW(severity_from_name("critical"), failmine::ParseError);
}

TEST(ComponentNames, RoundTrip) {
  for (Component c : kAllComponents)
    EXPECT_EQ(component_from_name(component_name(c)), c);
  EXPECT_THROW(component_from_name("NOPE"), failmine::ParseError);
}

TEST(CategoryNames, RoundTrip) {
  for (Category c : kAllCategories)
    EXPECT_EQ(category_from_name(category_name(c)), c);
  EXPECT_THROW(category_from_name("nope"), failmine::ParseError);
}

TEST(MessageCatalog, HasSixtyFourUniqueIds) {
  const auto catalog = message_catalog();
  EXPECT_EQ(catalog.size(), 64u);
  std::set<std::string_view> ids;
  for (const auto& def : catalog) ids.insert(def.id);
  EXPECT_EQ(ids.size(), catalog.size());
}

TEST(MessageCatalog, IdsAreEightHexDigits) {
  for (const auto& def : message_catalog()) {
    EXPECT_EQ(def.id.size(), 8u) << def.id;
    for (char c : def.id)
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'A' && c <= 'F')) << def.id;
  }
}

TEST(MessageCatalog, FatalFlagImpliesFatalSeverity) {
  for (const auto& def : message_catalog()) {
    if (def.job_fatal) EXPECT_EQ(def.severity, Severity::kFatal) << def.id;
    if (def.severity == Severity::kFatal) EXPECT_TRUE(def.job_fatal) << def.id;
  }
}

TEST(MessageCatalog, WeightsArePositiveAndInfoHeavy) {
  double info = 0.0, warn = 0.0, fatal = 0.0;
  for (const auto& def : message_catalog()) {
    EXPECT_GT(def.rate_weight, 0.0) << def.id;
    switch (def.severity) {
      case Severity::kInfo: info += def.rate_weight; break;
      case Severity::kWarn: warn += def.rate_weight; break;
      case Severity::kFatal: fatal += def.rate_weight; break;
    }
  }
  EXPECT_GT(info, 20.0 * warn);
  EXPECT_GT(warn, 5.0 * fatal);
}

TEST(MessageCatalog, LookupById) {
  const MessageDef& def = message_by_id("00010005");
  EXPECT_EQ(def.severity, Severity::kFatal);
  EXPECT_EQ(def.category, Category::kMemory);
  EXPECT_TRUE(is_known_message("00010001"));
  EXPECT_FALSE(is_known_message("FFFFFFFF"));
  EXPECT_THROW(message_by_id("FFFFFFFF"), failmine::ParseError);
}

TEST(MessageCatalog, SeverityCountsAddUp) {
  EXPECT_EQ(count_by_severity(Severity::kInfo) +
                count_by_severity(Severity::kWarn) +
                count_by_severity(Severity::kFatal),
            message_catalog().size());
}

RasEvent make_event(std::uint64_t id, util::UnixSeconds t,
                    const char* msg = "00010005") {
  RasEvent e;
  e.record_id = id;
  e.timestamp = t;
  e.message_id = msg;
  const MessageDef& def = message_by_id(msg);
  e.severity = def.severity;
  e.component = def.component;
  e.category = def.category;
  e.location = topology::Location::parse("R00-M0-N00-J00", kMira);
  e.text = std::string(def.text);
  return e;
}

TEST(RasLog, SortsOnConstruction) {
  std::vector<RasEvent> events = {make_event(2, 200), make_event(1, 100),
                                  make_event(3, 150)};
  const RasLog log(std::move(events));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].record_id, 1u);
  EXPECT_EQ(log.events()[1].record_id, 3u);
  EXPECT_EQ(log.events()[2].record_id, 2u);
}

TEST(RasLog, FilterBySeverityAndTime) {
  std::vector<RasEvent> events = {make_event(1, 100, "00010001"),   // INFO
                                  make_event(2, 200, "00010005"),   // FATAL
                                  make_event(3, 300, "00010003")};  // WARN
  const RasLog log(std::move(events));
  EXPECT_EQ(log.filter_severity(Severity::kFatal).size(), 1u);
  EXPECT_EQ(log.filter_time(100, 300).size(), 2u);
  const auto counts = log.severity_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

class RasLogFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("failmine_ras_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RasLogFile, CsvRoundTripPreservesEverything) {
  std::vector<RasEvent> events = {make_event(1, 1365465600),
                                  make_event(2, 1365465700, "00040004")};
  events[0].job_id = 1234567;
  events[1].text = "text with, comma and \"quotes\"";
  const RasLog log(std::move(events));
  log.write_csv(path_);
  const RasLog loaded = RasLog::read_csv(path_, kMira);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0], log.events()[0]);
  EXPECT_EQ(loaded.events()[1], log.events()[1]);
}

TEST(RasLog, WriteToFullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const RasLog log({make_event(1, 100)});
  EXPECT_THROW(log.write_csv("/dev/full"), failmine::IoError);
}

TEST_F(RasLogFile, ReadRejectsWrongHeader) {
  {
    std::ofstream out(path_);
    out << "not,a,ras,log\n";
  }
  EXPECT_THROW(RasLog::read_csv(path_, kMira), failmine::ParseError);
}

TEST_F(RasLogFile, ReadRejectsBadLocation) {
  RasLog log({make_event(1, 100)});
  log.write_csv(path_);
  // Corrupt the location column.
  std::string content;
  {
    std::ifstream in(path_);
    std::getline(in, content);
    std::string header = content;
    std::getline(in, content);
    content = header + "\n" +
              "1,1970-01-01 00:01:40,00010005,FATAL,DDR,MEMORY,R99-M0,,x\n";
  }
  {
    std::ofstream out(path_);
    out << content;
  }
  EXPECT_THROW(RasLog::read_csv(path_, kMira), failmine::Error);
}

TEST(RasLog, EmptyLogBehaves) {
  const RasLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.severity_counts()[2], 0u);
}

}  // namespace
}  // namespace failmine::raslog
