// Tests for distfit/selection: the model-selection driver must identify
// the generating family (or an equivalent one) on synthetic samples.

#include "distfit/selection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "distfit/fit.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace failmine::distfit {
namespace {

TEST(FamilyNames, RoundTrip) {
  for (Family f : all_families()) {
    EXPECT_EQ(family_from_name(family_name(f)), f);
  }
  EXPECT_THROW(family_from_name("cauchy"), failmine::ParseError);
}

TEST(FamilyNames, AllFamiliesAreDistinct) {
  const auto families = all_families();
  EXPECT_EQ(families.size(), 10u);
  for (std::size_t i = 0; i < families.size(); ++i)
    for (std::size_t j = i + 1; j < families.size(); ++j)
      EXPECT_NE(family_name(families[i]), family_name(families[j]));
}

TEST(FitAll, ProducesRankableMetrics) {
  util::Rng rng(21);
  const auto sample = Weibull(0.8, 50.0).sample_many(rng, 5000);
  const auto fits = fit_all(sample);
  ASSERT_GE(fits.size(), 5u);
  for (const auto& f : fits) {
    EXPECT_TRUE(f.dist != nullptr);
    EXPECT_GT(f.ks.statistic, 0.0);
    EXPECT_LE(f.ks.statistic, 1.0);
    if (std::isfinite(f.log_lik)) {
      // AIC and BIC both derive from the log-likelihood.
      EXPECT_NEAR(f.aic, 2.0 * static_cast<double>(f.dist->param_count()) -
                             2.0 * f.log_lik,
                  1e-9);
    } else {
      // A family can legitimately assign zero density to an extreme
      // sample point; it then loses every likelihood-based ranking.
      EXPECT_TRUE(std::isinf(f.aic));
    }
  }
}

TEST(FitAll, SkipsFamiliesThatRejectTheSample) {
  // A nearly constant positive sample: Pareto's alpha MLE still works
  // (values above min exist) but lognormal/gamma variance paths survive
  // too; use a sample with some negatives to kill all positive-support
  // families but keep normal.
  const std::vector<double> sample = {-1.0, 0.5, 2.0, -0.3, 1.1, 0.9};
  const auto fits = fit_all(sample);
  ASSERT_EQ(fits.size(), 1u);
  EXPECT_EQ(fits[0].family, Family::kNormal);
}

struct SelectionCase {
  const char* true_family;
  // Families that are acceptable winners (nested/near-equivalent shapes).
  std::vector<const char*> accepted;
};

// Without a printer GoogleTest names each case by the raw bytes of the
// struct, which hold string addresses and so change from build to build.
void PrintTo(const SelectionCase& c, std::ostream* os) {
  *os << c.true_family;
}

class SelectBestIdentifiesFamily
    : public ::testing::TestWithParam<SelectionCase> {};

std::unique_ptr<Distribution> generator_for(const std::string& name) {
  if (name == "weibull") return std::make_unique<Weibull>(0.7, 2000.0);
  if (name == "pareto") return std::make_unique<Pareto>(120.0, 1.4);
  if (name == "lognormal") return std::make_unique<LogNormal>(6.0, 1.3);
  if (name == "inverse_gaussian")
    return std::make_unique<InverseGaussian>(500.0, 200.0);
  if (name == "erlang") return std::make_unique<Erlang>(2, 0.01);
  if (name == "normal") return std::make_unique<NormalDist>(100.0, 7.0);
  throw failmine::DomainError("no generator for " + name);
}

TEST_P(SelectBestIdentifiesFamily, UnderKsCriterion) {
  const SelectionCase& c = GetParam();
  util::Rng rng(1009);
  const auto sample = generator_for(c.true_family)->sample_many(rng, 8000);
  const FitResult best = select_best(sample, Criterion::kKsDistance);
  const std::string got = family_name(best.family);
  bool ok = false;
  for (const char* name : c.accepted) ok = ok || got == name;
  EXPECT_TRUE(ok) << "true=" << c.true_family << " got=" << got
                  << " D=" << best.ks.statistic;
}

INSTANTIATE_TEST_SUITE_P(
    Families, SelectBestIdentifiesFamily,
    ::testing::Values(
        SelectionCase{"weibull", {"weibull"}},
        SelectionCase{"pareto", {"pareto"}},
        SelectionCase{"lognormal", {"lognormal"}},
        // IG and lognormal have very similar shapes at moderate skew.
        SelectionCase{"inverse_gaussian", {"inverse_gaussian", "lognormal"}},
        // Erlang k=2 == Gamma(2); either label is a correct identification.
        SelectionCase{"erlang", {"erlang", "gamma"}},
        SelectionCase{"normal", {"normal"}}),
    [](const auto& info) { return std::string(info.param.true_family); });

TEST(BestFitIndex, CriteriaSelectDifferentWinnersWhenTheyDisagree) {
  std::vector<FitResult> fits;
  {
    FitResult a;
    a.family = Family::kExponential;
    a.log_lik = -100.0;
    a.aic = 202.0;
    a.bic = 205.0;
    a.ks.statistic = 0.05;
    fits.push_back(std::move(a));
  }
  {
    FitResult b;
    b.family = Family::kWeibull;
    b.log_lik = -98.0;
    b.aic = 204.0;
    b.bic = 210.0;
    b.ks.statistic = 0.08;
    fits.push_back(std::move(b));
  }
  EXPECT_EQ(best_fit_index(fits, Criterion::kKsDistance), 0u);
  EXPECT_EQ(best_fit_index(fits, Criterion::kAic), 0u);
  EXPECT_EQ(best_fit_index(fits, Criterion::kLogLikelihood), 1u);
}

TEST(BestFitIndex, EmptyListThrows) {
  std::vector<FitResult> empty;
  EXPECT_THROW(best_fit_index(empty, Criterion::kAic), failmine::DomainError);
}

TEST(SelectBest, ThrowsWhenNothingFits) {
  // Two identical values reject every 2-parameter fitter and exponential
  // still fits; craft a sample that even exponential rejects: empty.
  EXPECT_THROW(select_best(std::vector<double>{}), failmine::DomainError);
}

}  // namespace
}  // namespace failmine::distfit
