#include "stats/special.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "util/error.hpp"

namespace failmine::stats {

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;

// Series representation of P(a, x), valid (fast) for x < a + 1.
double gamma_p_series(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  double ap = a;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Continued-fraction representation of Q(a, x), valid for x >= a + 1.
double gamma_q_cf(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / kEpsilon;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double gamma_p(double a, double x) {
  if (a <= 0) throw failmine::DomainError("gamma_p requires a > 0");
  if (x < 0) throw failmine::DomainError("gamma_p requires x >= 0");
  if (x == 0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  if (a <= 0) throw failmine::DomainError("gamma_q requires a > 0");
  if (x < 0) throw failmine::DomainError("gamma_q requires x >= 0");
  if (x == 0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double digamma(double x) {
  if (x <= 0) throw failmine::DomainError("digamma requires x > 0");
  double result = 0.0;
  // Recurrence to push the argument above 10, then asymptotic expansion.
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

double trigamma(double x) {
  if (x <= 0) throw failmine::DomainError("trigamma requires x > 0");
  double result = 0.0;
  while (x < 10.0) {
    result += 1.0 / (x * x);
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 / 42.0))));
  return result;
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}

double normal_quantile(double p) {
  if (p <= 0.0 || p >= 1.0)
    throw failmine::DomainError("normal_quantile requires p in (0,1)");
  // Peter Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double q, r, x;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace failmine::stats
