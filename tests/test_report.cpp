// Integration test: the takeaway report must pass end-to-end on the
// default-seed test-scale trace, and its formatting must be stable.

#include "core/report.hpp"

#include <gtest/gtest.h>

#include <future>
#include <iterator>
#include <utility>

#include "analysis/structure.hpp"
#include "core/distfit_study.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace failmine::core {
namespace {

struct PinnedFit {
  const char* family;
  double log_lik;
  double ks;
  std::vector<double> params;
};

/// One fit table: its label (the exit class for E05 rows), sample size,
/// best fits by KS/AIC/BIC and every family's fit.
struct PinnedRow {
  const char* label;
  std::size_t sample_size;
  std::size_t best_by_ks;
  std::size_t best_by_aic;
  std::size_t best_by_bic;
  std::vector<PinnedFit> fits;
};

// Printed with %a at test scale and the default seed by the per-k Erlang
// likelihood scan and the pdf-based log-logistic objective that the closed
// forms replaced. The report and every fit must keep them bit for bit.
const std::pair<const char*, double> kPinnedTakeaways[] = {
    {"T-F1", 0x1.f440f2ea61d95p+10},
    {"T-F2", 0x1.23cb4d5e6f80bp+28},
    {"T-A1", 0x1.fcp+9},
    {"T-A2", 0x1.fc78f1e3c78f2p-1},
    {"T-B1", 0x1.3972e5cb972e6p-1},
    {"T-B2", 0x1.cf3cf3cf3cf3dp-1},
    {"T-B3", 0x1.6db6db6db6db7p-1},
    {"T-C1", 0x1p+0},
    {"T-C2", 0x1p+0},
    {"T-C3", 0x1p+0},
    {"T-C4", 0x0p+0},
    {"T-D1", 0x1.0863d18863d18p-1},
    {"T-D2", 0x1.ac11ac4761f79p-1},
    {"T-E1", 0x1.6de65cd464d3ap+1},
    {"T-E2", 0x1.cdb6db6db6db7p+3},
    {"T-A3", 0x1.9f283fbe9ef3fp-3},
    {"T-B4", 0x1.3ef2c4241bb1cp-1},
    {"T-B5", -0x1.aaaaaaaaaaaabp-1},
    {"T-C5", 0x0p+0},
    {"T-D3", 0x1.6c16c16c16c17p-3},
    {"T-E3", 0x1.cdb6db6db6db6p+3},
    {"T-S1", 0x1.62656bd33d17ep-3},
};

const PinnedRow kPinnedRows[] = {
    {"USER_APP_ERROR", 610, 1, 1, 1, {
        {"exponential", -0x1.46fdf2e2dbddcp+12, 0x1.f743d9e775498p-4,
         {0x1.0c87522b8762fp-11}},
        {"weibull", -0x1.4570b4d60c459p+12, 0x1.64c1b99d8f88p-5,
         {0x1.9de91f8db8607p-1, 0x1.b2835db2ff3f5p+10}},
        {"pareto", -0x1.6022b84805eb1p+12, 0x1.58d3b5218971fp-2,
         {0x1.4p+3, 0x1.ccff86330a6e8p-3}},
        {"lognormal", -0x1.480e728473eccp+12, 0x1.2321d7894dbep-4,
         {0x1.afb008be5b8c9p+2, 0x1.8dc597a305c94p+0}},
        {"gamma", -0x1.457dfbd47a6c9p+12, 0x1.b6936b4ed2d78p-5,
         {0x1.7257b369b8ca2p-1, 0x1.51688321df169p+11}},
        {"erlang", -0x1.46fdf2e2dbddcp+12, 0x1.f743d9e7754ap-4,
         {0x1p+0, 0x1.0c87522b8762fp-11}},
        {"inverse_gaussian", -0x1.53318a4931ep+12, 0x1.265d0428ed2fep-2,
         {0x1.e81ca482f00d7p+10, 0x1.8888c584517a5p+7}},
        {"normal", -0x1.5dad05f2cc68ep+12, 0x1.9dd22647b18fep-3,
         {0x1.e81ca482f00d7p+10, 0x1.2309263c17f0ep+11}},
        {"rayleigh", -0x1.6e003d45950c1p+12, 0x1.9850ed76ea436p-2,
         {0x1.0c9335dcc2285p+11}},
        {"loglogistic", -0x1.47eb42923eaaap+12, 0x1.ff3487a4b7ap-5,
         {0x1.e3346d83b2dfbp+9, 0x1.2655603a026dap+0}},
    }},
    {"USER_CONFIG_ERROR", 143, 4, 4, 4, {
        {"exponential", -0x1.b9c223e5c0d2ep+9, 0x1.177116eca567p-3,
         {0x1.7169d32cef7b2p-8}},
        {"weibull", -0x1.b1e3e1119c322p+9, 0x1.72198c176b998p-5,
         {0x1.7e5ce1bdecf24p+0, 0x1.8a05cedbc613ap+7}},
        {"pareto", -0x1.eaaba403f384dp+9, 0x1.6878761d1db06p-2,
         {0x1.4p+3, 0x1.895cbec8a9cbep-2}},
        {"lognormal", -0x1.b40466a869572p+9, 0x1.0d1f842206a9cp-4,
         {0x1.39f85a8a437eap+2, 0x1.9831f427b2166p-1}},
        {"gamma", -0x1.b1a1c2c664a78p+9, 0x1.34605667a10fp-5,
         {0x1.fbfc0bedf0468p+0, 0x1.659da848b47f3p+6}},
        {"erlang", -0x1.b1a217419c0bbp+9, 0x1.37f0c1d5d4b9p-5,
         {0x1p+1, 0x1.7169d32cef7b2p-7}},
        {"inverse_gaussian", -0x1.b5fac9991ed47p+9, 0x1.aae6074f17c68p-4,
         {0x1.62cfaa11e6efep+7, 0x1.924c87bb0f1fdp+7}},
        {"normal", -0x1.bd8234bd1ca01p+9, 0x1.d7d6d8640f43cp-4,
         {0x1.62cfaa11e6efep+7, 0x1.ebe2a3ab821eep+6}},
        {"rayleigh", -0x1.b7bf4ce6a8df3p+9, 0x1.3b6b5b559971ap-3,
         {0x1.3144f50a844cdp+7}},
        {"loglogistic", -0x1.b4e0b67cbbb7ep+9, 0x1.a6ae412c5879cp-5,
         {0x1.1b1a1e3b661afp+7, 0x1.17938b0068d68p+1}},
    }},
    {"USER_KILL", 159, 2, 2, 2, {
        {"exponential", -0x1.3414eb3c0fd27p+10, 0x1.2f3040f88a1cep-2,
         {0x1.32ca6d95fc98dp-10}},
        {"weibull", -0x1.33638c431bf8fp+10, 0x1.fbcb3fc8ba2a4p-3,
         {0x1.22d115c0cec4bp+0, 0x1.c4f347c398f14p+9}},
        {"pareto", -0x1.1a8ddb75572ep+10, 0x1.c5619d9026fe8p-5,
         {0x1.2cp+8, 0x1.60e1da60408cbp+0}},
        {"lognormal", -0x1.2876493be9783p+10, 0x1.4ab8c1df7433cp-3,
         {0x1.9b789e444d641p+2, 0x1.5aa64279ac047p-1}},
        {"gamma", -0x1.312e05521f40ap+10, 0x1.c1294d4f2c70ap-3,
         {0x1.b43e7d94de455p+0, 0x1.f56d6b4aa56aap+8}},
        {"erlang", -0x1.317efdba3deb7p+10, 0x1.e3fac4c99920ep-3,
         {0x1p+1, 0x1.32ca6d95fc98dp-9}},
        {"inverse_gaussian", -0x1.286cfe319c606p+10, 0x1.803e94a7f52acp-3,
         {0x1.ab3c609a90e7ep+9, 0x1.529710d252842p+10}},
        {"normal", -0x1.4d678f3abebb3p+10, 0x1.3425a180391c8p-2,
         {0x1.ab3c609a90e7ep+9, 0x1.09aec01651ad1p+10}},
        {"rayleigh", -0x1.4a759a6a11f8fp+10, 0x1.f64b66c6c30bep-2,
         {0x1.e21ebb9e37f4p+9}},
        {"loglogistic", -0x1.26912743d5cp+10, 0x1.2db0ae9623009p-3,
         {0x1.1699276d10272p+9, 0x1.6b01969aae543p+1}},
    }},
    {"T-C4", 7, 9, 2, 2, {
        {"exponential", -0x1.1eaadc4c00911p+6, 0x1.452b3e2f48e5fp-2,
         {0x1.97f02dc1a76bp-14}},
        {"weibull", -0x1.1c4eab019b9d9p+6, 0x1.bc320fccfd3cep-3,
         {0x1.78fff656d8d6fp-1, 0x1.09df2edae1632p+13}},
        {"pareto", -0x1.15c37706b5036p+6, 0x1.b93aef6011e2p-3,
         {0x1.2d8p+9, 0x1.0faf8b7b0cccbp-1}},
        {"lognormal", -0x1.1b763ee17e9a3p+6, 0x1.b1119d1f2f871p-3,
         {0x1.092a9421a2073p+3, 0x1.84f12dc77a26ap+0}},
        {"gamma", -0x1.1c7ed87a6c8bap+6, 0x1.c8de857a6d135p-3,
         {0x1.491864a554bd7p-1, 0x1.f3e0b7bac32fdp+13}},
        {"erlang", -0x1.1eaadc4c00911p+6, 0x1.452b3e2f48e5ep-2,
         {0x1p+0, 0x1.97f02dc1a76bp-14}},
        {"inverse_gaussian", -0x1.199bb397fb5d8p+6, 0x1.c5fdb7f0928dp-3,
         {0x1.414db6db6db6ep+13, 0x1.eacee524eac18p+10}},
        {"normal", -0x1.2de8d0b83eed5p+6, 0x1.2bd253243916ap-2,
         {0x1.414db6db6db6ep+13, 0x1.6c3cbaed3aab3p+13}},
        {"rayleigh", -0x1.3d0bb26ea2f6fp+6, 0x1.0c14a57d98d1bp-1,
         {0x1.5771237a61d78p+13}},
        {"loglogistic", -0x1.1d30b68521b3p+6, 0x1.98a5ae1dc17a7p-3,
         {0x1.e120280a0dceap+11, 0x1.0c837143077aap+0}},
    }},
    {"T-C5/E13", 6, 1, 0, 0, {
        {"exponential", -0x1.446ed390b9302p+5, 0x1.4380f93c363cap-3,
         {0x1.9d6d86ffca309p-9}},
        {"weibull", -0x1.438a986b8ef87p+5, 0x1.e1a8bcc6be00ap-4,
         {0x1.2c4db9402bceap+0, 0x1.4eb3f4e203462p+8}},
        {"pareto", -0x1.515598b89485p+5, 0x1.76c32833bf2bp-2,
         {0x1.a2d654320feddp+4, 0x1.f4524695b608cp-2}},
        {"lognormal", -0x1.470efcbfaed99p+5, 0x1.7f328efba6ae2p-3,
         {0x1.53f0e51ffe7bcp+2, 0x1.163610ce5e4b9p+0}},
        {"gamma", -0x1.43b22944e8a1fp+5, 0x1.0089ca8d75f4cp-3,
         {0x1.420c2ba77f8bp+0, 0x1.f808ce9c37744p+7}},
        {"erlang", -0x1.446ed390b9302p+5, 0x1.4380f93c363c8p-3,
         {0x1p+0, 0x1.9d6d86ffca309p-9}},
        {"inverse_gaussian", -0x1.49c068f500a75p+5, 0x1.0e864bee70653p-2,
         {0x1.3d09851eb851fp+8, 0x1.32c5e9bcbe199p+7}},
        {"normal", -0x1.4f0d1066f6728p+5, 0x1.d43157aa1a578p-3,
         {0x1.3d09851eb851fp+8, 0x1.0428975f00efp+8}},
        {"rayleigh", -0x1.5159f6039eec2p+5, 0x1.34ae79486522p-2,
         {0x1.21fee8979ab66p+8}},
        {"loglogistic", -0x1.476aef260fc9ap+5, 0x1.292df10d36f1ep-3,
         {0x1.c3d475faeb323p+7, 0x1.a1d18c62c1c2dp+0}},
    }},
};

void expect_pinned(const ClassFitRow& row, const PinnedRow& pin) {
  SCOPED_TRACE(pin.label);
  EXPECT_EQ(row.sample_size, pin.sample_size);
  EXPECT_EQ(row.best_by_ks, pin.best_by_ks);
  EXPECT_EQ(row.best_by_aic, pin.best_by_aic);
  EXPECT_EQ(row.best_by_bic, pin.best_by_bic);
  ASSERT_EQ(row.fits.size(), pin.fits.size());
  for (std::size_t i = 0; i < pin.fits.size(); ++i) {
    const distfit::FitResult& fit = row.fits[i];
    const PinnedFit& want = pin.fits[i];
    SCOPED_TRACE(want.family);
    EXPECT_EQ(distfit::family_name(fit.family), want.family);
    EXPECT_EQ(fit.log_lik, want.log_lik);
    EXPECT_EQ(fit.ks.statistic, want.ks);
    const auto params = fit.dist->params();
    ASSERT_EQ(params.size(), want.params.size());
    for (std::size_t p = 0; p < params.size(); ++p)
      EXPECT_EQ(params[p].value, want.params[p]) << params[p].name;
  }
}

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::SimConfig(sim::SimConfig::test_scale());
    result_ = new sim::SimResult(sim::simulate(*config_));
    analyzer_ = new JointAnalyzer(result_->job_log, result_->task_log,
                                  result_->ras_log, result_->io_log,
                                  config_->machine);
  }
  static void TearDownTestSuite() {
    delete analyzer_;
    delete result_;
    delete config_;
    analyzer_ = nullptr;
    result_ = nullptr;
    config_ = nullptr;
  }
  static sim::SimConfig* config_;
  static sim::SimResult* result_;
  static JointAnalyzer* analyzer_;
};

sim::SimConfig* ReportTest::config_ = nullptr;
sim::SimResult* ReportTest::result_ = nullptr;
JointAnalyzer* ReportTest::analyzer_ = nullptr;

TEST_F(ReportTest, CoversEveryHeadlineTakeaway) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  ASSERT_EQ(takeaways.size(), 22u);
  // Every id family from DESIGN.md appears.
  for (const char* prefix : {"T-A", "T-B", "T-C", "T-D", "T-E", "T-F"}) {
    bool found = false;
    for (const auto& t : takeaways)
      found = found || t.id.rfind(prefix, 0) == 0;
    EXPECT_TRUE(found) << prefix;
  }
}

TEST_F(ReportTest, StructuralTakeawaysPassAtTestScale) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  for (const auto& t : takeaways) {
    // At 1/100 scale, small-sample noise exempts only the tight
    // count-calibrated claims from a hard assertion; structural claims
    // must hold at any scale. T-C4/T-C5 need >= 30 system failures /
    // >= 20 interruption intervals, which a 1/100 trace does not contain.
    if (t.id == "T-A1" || t.id == "T-F2" || t.id == "T-E1" ||
        t.id == "T-C4" || t.id == "T-C5")
      continue;
    EXPECT_TRUE(t.pass) << t.id << ": " << t.claim << " expected "
                        << t.expected << " measured " << t.measured;
  }
}

TEST_F(ReportTest, CalibratedCountsAreInTheRightBallpark) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  for (const auto& t : takeaways) {
    if (t.id == "T-A1") EXPECT_NEAR(t.measured, t.expected, 0.2 * t.expected);
    if (t.id == "T-F2") EXPECT_NEAR(t.measured, t.expected, 0.3 * t.expected);
    if (t.id == "T-E1") EXPECT_NEAR(t.measured, t.expected, 0.8 * t.expected);
  }
}

TEST_F(ReportTest, FormatProducesOneLinePerTakeawayPlusHeader) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  const std::string text = format_report(takeaways);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_EQ(lines, takeaways.size() + 2);
  EXPECT_NE(text.find("T-A1"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
}

TEST_F(ReportTest, JsonOutputIsWellFormedAndComplete) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  const std::string json = format_report_json(takeaways);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // One object per takeaway, comma-separated.
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count("\"id\":"), takeaways.size());
  EXPECT_EQ(count("\"pass\":"), takeaways.size());
  EXPECT_EQ(count("},"), takeaways.size() - 1);
  EXPECT_NE(json.find("\"T-A1\""), std::string::npos);
}

TEST_F(ReportTest, TakeawaysKeepTheirPinnedValues) {
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  const auto takeaways = evaluate_takeaways(*analyzer_, rc);
  ASSERT_EQ(takeaways.size(), std::size(kPinnedTakeaways));
  for (std::size_t i = 0; i < takeaways.size(); ++i) {
    EXPECT_EQ(takeaways[i].id, kPinnedTakeaways[i].first);
    EXPECT_EQ(takeaways[i].measured, kPinnedTakeaways[i].second)
        << takeaways[i].id;
  }
}

TEST_F(ReportTest, FitsKeepTheirPinnedValues) {
  // Every E05 row, then the samples T-C4 and T-C5 fit: the joint
  // system-failure runtimes and the filtered interruption intervals, which
  // E13 fits too. The report skips T-C4 and T-C5 at test scale (too few
  // observations), so their samples are fitted here directly.
  const auto study = analyzer_->runtime_distribution_study();
  ASSERT_EQ(study.size() + 2, std::size(kPinnedRows));
  for (std::size_t i = 0; i < study.size(); ++i) {
    EXPECT_EQ(joblog::exit_class_name(study[i].exit_class),
              kPinnedRows[i].label);
    expect_pinned(study[i], kPinnedRows[i]);
  }
  std::vector<double> system;
  for (joblog::ExitClass cls :
       {joblog::ExitClass::kSystemHardware, joblog::ExitClass::kSystemSoftware,
        joblog::ExitClass::kSystemIo}) {
    const auto part = runtime_sample(analyzer_->jobs(), cls);
    system.insert(system.end(), part.begin(), part.end());
  }
  expect_pinned(fit_sample(std::move(system)), kPinnedRows[study.size()]);
  const FilterConfig filter = ReportConfig{}.filter;
  const PinnedRow& intervals = kPinnedRows[study.size() + 1];
  expect_pinned(
      fit_sample(analyzer_->interruption_analysis(filter).mtti.intervals_days),
      intervals);
  expect_pinned(analyzer_->interruption_interval_fit(filter), intervals);
}

TEST_F(ReportTest, ConcurrentCallsGiveEqualResults) {
  // The report runs its analyses on worker threads; two reports at once
  // share the analyzer and must still agree with each other, field by
  // field and bit for bit.
  ReportConfig rc;
  rc.trace_scale = config_->scale;
  auto other = std::async(std::launch::async,
                          [&] { return evaluate_takeaways(*analyzer_, rc); });
  const auto here = evaluate_takeaways(*analyzer_, rc);
  const auto there = other.get();
  ASSERT_EQ(here.size(), std::size(kPinnedTakeaways));
  EXPECT_EQ(here, there);
}

TEST_F(ReportTest, ThrowsWhatTheSerialOrderMeetsFirst) {
  // Every job takes 512 nodes, so T-B2's failure rate by scale has one
  // bucket and its trend throws. Only two users submit, so E10, the first
  // task of the report's table, throws too. The serial order calls the
  // T-B2 trend first, so that is the error the report must throw.
  std::vector<joblog::JobRecord> records;
  for (std::uint32_t i = 0; i < 8; ++i) {
    joblog::JobRecord j;
    j.job_id = i + 1;
    j.user_id = 1 + i % 2;
    j.project_id = 1 + i % 2;
    j.queue = "prod-short";
    j.submit_time = 1'400'000'000 + 3600 * static_cast<std::int64_t>(i);
    j.start_time = j.submit_time + 60;
    j.end_time = j.start_time + 600 * static_cast<std::int64_t>(i + 1);
    j.nodes_used = 512;
    j.task_count = 1 + i % 3;
    j.requested_walltime = 86400;
    j.exit_class = i % 2 == 0 ? joblog::ExitClass::kUserAppError
                              : joblog::ExitClass::kSuccess;
    records.push_back(j);
  }
  const joblog::JobLog jobs(std::move(records));
  const tasklog::TaskLog tasks;
  const raslog::RasLog ras;
  const iolog::IoLog io;
  const JointAnalyzer analyzer(jobs, tasks, ras, io, config_->machine);
  const auto error_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const failmine::Error& e) {
      return e.what();
    }
    return "no error";
  };
  ASSERT_EQ(error_of([&] { analyzer.ras_user_correlations(); }),
            "domain error: too few users to correlate");
  // T-B3 has three task-count buckets, so its trend, which throws the
  // same message, does not.
  ASSERT_EQ(error_of([&] {
              analysis::bucket_trend(
                  analysis::failure_rate_by_task_count(jobs));
            }),
            "no error");
  EXPECT_EQ(error_of([&] { evaluate_takeaways(analyzer, ReportConfig{}); }),
            "domain error: bucket_trend needs >= 2 populated buckets");
}

TEST(ReportUnit, JsonEscapesSpecialCharacters) {
  std::vector<Takeaway> takeaways(1);
  takeaways[0].id = "T-X";
  takeaways[0].claim = "has \"quotes\" and \\backslash\\ and\nnewline";
  takeaways[0].unit = "u";
  const std::string json = format_report_json(takeaways);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\backslash\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(ReportUnit, AllPassDetectsFailure) {
  std::vector<Takeaway> takeaways(2);
  takeaways[0].pass = true;
  takeaways[1].pass = true;
  EXPECT_TRUE(all_pass(takeaways));
  takeaways[1].pass = false;
  EXPECT_FALSE(all_pass(takeaways));
  EXPECT_TRUE(all_pass({}));
}

}  // namespace
}  // namespace failmine::core
