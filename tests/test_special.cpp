// Unit tests for stats/special: incomplete gamma, digamma, normal
// CDF/quantile against reference values.

#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace failmine::stats {
namespace {

TEST(Special, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(1.0, 1e9), 1.0, 1e-12);
  EXPECT_THROW(gamma_p(0.0, 1.0), failmine::DomainError);
  EXPECT_THROW(gamma_p(1.0, -1.0), failmine::DomainError);
}

// log_gamma is std::lgamma without the global sign store, so the fits
// keep their bits: every value equals the library's, negative
// non-integers included.
TEST(Special, LogGammaEqualsStdLgamma) {
  for (const double x : {1e-300, 1e-8, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 171.5,
                         1e6, 1e300, -0.5, -2.5, -100.25}) {
    EXPECT_EQ(log_gamma(x), std::lgamma(x)) << x;
  }
}

TEST(Special, GammaPMatchesExponentialCdf) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10) << "x=" << x;
  }
}

TEST(Special, GammaPMatchesErlang2Cdf) {
  // P(2, x) = 1 - e^{-x}(1 + x).
  for (double x : {0.2, 1.0, 3.0, 7.0}) {
    EXPECT_NEAR(gamma_p(2.0, x), 1.0 - std::exp(-x) * (1.0 + x), 1e-10);
  }
}

TEST(Special, GammaQIsComplement) {
  for (double a : {0.5, 1.0, 3.3, 10.0}) {
    for (double x : {0.1, 1.0, 4.0, 20.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-10);
    }
  }
}

TEST(Special, DigammaKnownValues) {
  constexpr double kEulerMascheroni = 0.5772156649015329;
  EXPECT_NEAR(digamma(1.0), -kEulerMascheroni, 1e-9);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerMascheroni, 1e-9);
  EXPECT_NEAR(digamma(0.5), -kEulerMascheroni - 2.0 * std::log(2.0), 1e-9);
  EXPECT_THROW(digamma(0.0), failmine::DomainError);
}

TEST(Special, DigammaRecurrence) {
  // psi(x+1) = psi(x) + 1/x.
  for (double x : {0.3, 1.7, 4.2, 11.0}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
  }
}

TEST(Special, TrigammaKnownValues) {
  EXPECT_NEAR(trigamma(1.0), 1.6449340668482264, 1e-8);  // pi^2/6
  EXPECT_THROW(trigamma(-1.0), failmine::DomainError);
}

TEST(Special, TrigammaRecurrence) {
  for (double x : {0.4, 2.5, 7.0}) {
    EXPECT_NEAR(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-9);
  }
}

TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-8);
}

TEST(Special, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_THROW(normal_quantile(0.0), failmine::DomainError);
  EXPECT_THROW(normal_quantile(1.0), failmine::DomainError);
}

TEST(Special, NormalQuantileSymmetry) {
  for (double p : {0.01, 0.1, 0.3}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9);
  }
}

}  // namespace
}  // namespace failmine::stats
