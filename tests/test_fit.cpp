// Property tests for the MLE fitters: each fitter must recover the
// generating parameters from a large sample of its own family
// (parameterized over several parameter points per family).

#include "distfit/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/distfit_study.hpp"
#include "core/joint_analyzer.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace failmine::distfit {
namespace {

constexpr std::size_t kN = 30000;

std::vector<double> draw(const Distribution& d, std::uint64_t seed) {
  util::Rng rng(seed);
  return d.sample_many(rng, kN);
}

// ---- Exponential -------------------------------------------------------

class ExponentialRecovery : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialRecovery, RateRecovered) {
  const double rate = GetParam();
  const auto sample = draw(Exponential(rate), 101);
  const Exponential fit = fit_exponential(sample);
  EXPECT_NEAR(fit.rate(), rate, 0.05 * rate);
}

INSTANTIATE_TEST_SUITE_P(Rates, ExponentialRecovery,
                         ::testing::Values(0.1, 1.0, 5.0, 40.0));

// ---- Weibull -----------------------------------------------------------

class WeibullRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(WeibullRecovery, ShapeAndScaleRecovered) {
  const auto [shape, scale] = GetParam();
  const auto sample = draw(Weibull(shape, scale), 103);
  const Weibull fit = fit_weibull(sample);
  EXPECT_NEAR(fit.shape(), shape, 0.05 * shape);
  EXPECT_NEAR(fit.scale(), scale, 0.05 * scale);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WeibullRecovery,
                         ::testing::Values(std::pair{0.7, 100.0},
                                           std::pair{1.0, 3.0},
                                           std::pair{2.2, 0.5},
                                           std::pair{4.0, 1000.0}));

// ---- Pareto ------------------------------------------------------------

class ParetoRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ParetoRecovery, XmAndAlphaRecovered) {
  const auto [xm, alpha] = GetParam();
  const auto sample = draw(Pareto(xm, alpha), 107);
  const Pareto fit = fit_pareto(sample);
  EXPECT_NEAR(fit.xm(), xm, 0.01 * xm);  // MLE xm is the sample min
  EXPECT_NEAR(fit.alpha(), alpha, 0.06 * alpha);
}

INSTANTIATE_TEST_SUITE_P(Params, ParetoRecovery,
                         ::testing::Values(std::pair{1.0, 1.3},
                                           std::pair{300.0, 2.5},
                                           std::pair{0.5, 4.0}));

// ---- LogNormal -----------------------------------------------------------

class LogNormalRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LogNormalRecovery, MuSigmaRecovered) {
  const auto [mu, sigma] = GetParam();
  const auto sample = draw(LogNormal(mu, sigma), 109);
  const LogNormal fit = fit_lognormal(sample);
  EXPECT_NEAR(fit.mu(), mu, 0.03 + 0.03 * std::fabs(mu));
  EXPECT_NEAR(fit.sigma(), sigma, 0.05 * sigma);
}

INSTANTIATE_TEST_SUITE_P(Params, LogNormalRecovery,
                         ::testing::Values(std::pair{0.0, 1.0},
                                           std::pair{5.0, 0.3},
                                           std::pair{-2.0, 2.0}));

// ---- Gamma ---------------------------------------------------------------

class GammaRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GammaRecovery, ShapeScaleRecovered) {
  const auto [shape, scale] = GetParam();
  const auto sample = draw(GammaDist(shape, scale), 113);
  const GammaDist fit = fit_gamma(sample);
  EXPECT_NEAR(fit.shape(), shape, 0.06 * shape);
  EXPECT_NEAR(fit.scale(), scale, 0.08 * scale);
}

INSTANTIATE_TEST_SUITE_P(Params, GammaRecovery,
                         ::testing::Values(std::pair{0.5, 2.0},
                                           std::pair{2.0, 10.0},
                                           std::pair{9.0, 0.25}));

// ---- Erlang ----------------------------------------------------------------

class ErlangRecovery : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(ErlangRecovery, IntegerShapeRecovered) {
  const auto [k, rate] = GetParam();
  const auto sample = draw(Erlang(k, rate), 127);
  const Erlang fit = fit_erlang(sample);
  EXPECT_EQ(fit.k(), k);
  EXPECT_NEAR(fit.rate(), rate, 0.05 * rate);
}

INSTANTIATE_TEST_SUITE_P(Params, ErlangRecovery,
                         ::testing::Values(std::pair{1, 0.5}, std::pair{2, 3.0},
                                           std::pair{6, 0.01}));

// ---- Inverse Gaussian -------------------------------------------------------

class InverseGaussianRecovery
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(InverseGaussianRecovery, MuLambdaRecovered) {
  const auto [mu, lambda] = GetParam();
  const auto sample = draw(InverseGaussian(mu, lambda), 131);
  const InverseGaussian fit = fit_inverse_gaussian(sample);
  EXPECT_NEAR(fit.mu(), mu, 0.05 * mu);
  EXPECT_NEAR(fit.lambda(), lambda, 0.08 * lambda);
}

INSTANTIATE_TEST_SUITE_P(Params, InverseGaussianRecovery,
                         ::testing::Values(std::pair{1.0, 1.0},
                                           std::pair{5.0, 20.0},
                                           std::pair{0.5, 0.1}));

// ---- Normal / Rayleigh -------------------------------------------------------

TEST(NormalRecovery, MuSigma) {
  const auto sample = draw(NormalDist(-3.0, 2.5), 137);
  const NormalDist fit = fit_normal(sample);
  EXPECT_NEAR(fit.mu(), -3.0, 0.05);
  EXPECT_NEAR(fit.sigma(), 2.5, 0.05);
}

TEST(RayleighRecovery, Sigma) {
  const auto sample = draw(Rayleigh(4.2), 139);
  const Rayleigh fit = fit_rayleigh(sample);
  EXPECT_NEAR(fit.sigma(), 4.2, 0.05);
}

// ---- Error handling -----------------------------------------------------------

TEST(Fitters, RejectEmptyAndNonPositiveSamples) {
  EXPECT_THROW(fit_exponential({}), failmine::DomainError);
  EXPECT_THROW(fit_weibull(std::vector<double>{1.0, -1.0}),
               failmine::DomainError);
  EXPECT_THROW(fit_pareto(std::vector<double>{0.0, 1.0}),
               failmine::DomainError);
  EXPECT_THROW(fit_lognormal(std::vector<double>{1.0}), failmine::DomainError);
  EXPECT_THROW(fit_gamma(std::vector<double>{2.0, 2.0}),
               failmine::DomainError);  // constant sample
  EXPECT_THROW(fit_inverse_gaussian(std::vector<double>{3.0, 3.0}),
               failmine::DomainError);
  EXPECT_THROW(fit_normal(std::vector<double>{1.0, 1.0}),
               failmine::DomainError);
}

TEST(Fitters, ParetoRejectsConstantSample) {
  EXPECT_THROW(fit_pareto(std::vector<double>{2.0, 2.0, 2.0}),
               failmine::DomainError);
}

TEST(Fitters, ErlangValidatesKMax) {
  EXPECT_THROW(fit_erlang(std::vector<double>{1.0, 2.0}, 0),
               failmine::DomainError);
}

// The k in [1, k_max] maximizing Erlang(k, k / mean).log_likelihood, the
// first on ties: the profile fit_erlang evaluates in closed form.
int brute_force_erlang_k(std::span<const double> sample, int k_max = 50) {
  const double m = stats::mean(sample);
  double best_ll = -std::numeric_limits<double>::infinity();
  int best_k = 1;
  for (int k = 1; k <= k_max; ++k) {
    const double ll =
        Erlang(k, static_cast<double>(k) / m).log_likelihood(sample);
    if (ll > best_ll) {
      best_ll = ll;
      best_k = k;
    }
  }
  return best_k;
}

TEST(Fitters, ErlangProfileMatchesBruteForceOnGammaSamples) {
  // Log-uniform shape in [0.05, 60], scale in [e^-5, e^15], size in [2, 3000].
  util::Rng rng(20190624);
  for (int i = 0; i < 1000; ++i) {
    const double shape = std::exp(rng.uniform(std::log(0.05), std::log(60.0)));
    const double scale = std::exp(rng.uniform(-5.0, 15.0));
    const auto n = static_cast<std::size_t>(
        std::exp(rng.uniform(std::log(2.0), std::log(3001.0))));
    std::vector<double> sample(n);
    for (double& x : sample) {
      do x = rng.gamma(shape, scale);
      while (!(x > 0));
    }
    ASSERT_EQ(fit_erlang(sample).k(), brute_force_erlang_k(sample))
        << "sample " << i << ": shape " << shape << ", scale " << scale
        << ", n " << n;
  }
}

TEST(Fitters, ErlangProfileMatchesBruteForceOnTheTestScaleTwin) {
  // Every failure class's runtimes (E05), the joint system-failure sample
  // (T-C4) and the filtered interruption intervals (E13, T-C5).
  const sim::SimConfig config = sim::SimConfig::test_scale();
  const auto twin = sim::simulate(config);
  const core::JointAnalyzer analyzer(twin.job_log, twin.task_log,
                                     twin.ras_log, twin.io_log, config.machine);
  std::vector<std::vector<double>> samples;
  std::vector<double> system;
  for (const joblog::ExitClass cls : joblog::kAllExitClasses) {
    if (!joblog::is_failure(cls)) continue;
    samples.push_back(core::runtime_sample(twin.job_log, cls));
    if (cls == joblog::ExitClass::kSystemHardware ||
        cls == joblog::ExitClass::kSystemSoftware ||
        cls == joblog::ExitClass::kSystemIo)
      system.insert(system.end(), samples.back().begin(), samples.back().end());
  }
  samples.push_back(system);
  samples.push_back(
      analyzer.interruption_analysis(core::FilterConfig{}).mtti.intervals_days);
  int fitted = 0;
  for (const auto& sample : samples) {
    if (sample.size() < 2) continue;
    EXPECT_EQ(fit_erlang(sample).k(), brute_force_erlang_k(sample))
        << "sample of " << sample.size();
    ++fitted;
  }
  EXPECT_GE(fitted, 5);
}

TEST(Fitters, FittedLikelihoodBeatsPerturbedParameters) {
  // The MLE should out-score nearby non-MLE parameterizations.
  const auto sample = draw(Weibull(1.5, 10.0), 149);
  const Weibull fit = fit_weibull(sample);
  const double best = fit.log_likelihood(sample);
  EXPECT_GT(best, Weibull(fit.shape() * 1.2, fit.scale()).log_likelihood(sample));
  EXPECT_GT(best, Weibull(fit.shape(), fit.scale() * 1.2).log_likelihood(sample));
  EXPECT_GT(best, Weibull(fit.shape() * 0.8, fit.scale() * 0.9).log_likelihood(sample));
}

}  // namespace
}  // namespace failmine::distfit
