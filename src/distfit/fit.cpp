#include "distfit/fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "stats/special.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace failmine::distfit {

namespace {

/// Newton/profile-likelihood iteration counts from the iterative fitters.
obs::Histogram& iterations_histogram() {
  static obs::Histogram& h = obs::metrics().histogram(
      "distfit.iterations", {1, 2, 5, 10, 20, 50, 100, 200});
  return h;
}

void require_positive(std::span<const double> sample, const char* who) {
  if (sample.empty())
    throw failmine::DomainError(std::string(who) + " requires a non-empty sample");
  for (double x : sample)
    if (x <= 0)
      throw failmine::DomainError(std::string(who) +
                                  " requires strictly positive values");
}

double mean_log(std::span<const double> sample) {
  double s = 0.0;
  for (double x : sample) s += std::log(x);
  return s / static_cast<double>(sample.size());
}

}  // namespace

Exponential fit_exponential(std::span<const double> sample) {
  require_positive(sample, "fit_exponential");
  return Exponential(1.0 / stats::mean(sample));
}

Weibull fit_weibull(std::span<const double> sample) {
  require_positive(sample, "fit_weibull");
  if (sample.size() < 2)
    throw failmine::DomainError("fit_weibull requires >= 2 observations");
  const double mlog = mean_log(sample);
  const double n = static_cast<double>(sample.size());

  // Profile equation g(k) = sum(x^k log x)/sum(x^k) - 1/k - mlog = 0.
  // Start from the method-of-moments-ish guess via log variance.
  double var_log = 0.0;
  for (double x : sample) {
    const double d = std::log(x) - mlog;
    var_log += d * d;
  }
  var_log /= n;
  double k = var_log > 0 ? 1.2 / std::sqrt(var_log) : 1.0;
  k = std::clamp(k, 1e-3, 1e3);

  int iterations = 0;
  for (int iter = 0; iter < 200; ++iter) {
    iterations = iter + 1;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    // Normalize by the max to avoid overflow of x^k for large k.
    double xmax = 0.0;
    for (double x : sample) xmax = std::max(xmax, x);
    for (double x : sample) {
      const double lx = std::log(x);
      const double w = std::pow(x / xmax, k);
      s0 += w;
      s1 += w * lx;
      s2 += w * lx * lx;
    }
    const double g = s1 / s0 - 1.0 / k - mlog;
    const double gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    if (gp == 0.0) break;
    double next = k - g / gp;
    if (!(next > 0)) next = k / 2.0;  // damped fallback
    if (std::fabs(next - k) < 1e-12 * (1.0 + k)) {
      k = next;
      break;
    }
    k = std::clamp(next, 1e-6, 1e6);
  }
  iterations_histogram().observe(iterations);
  double sum_pow = 0.0;
  for (double x : sample) sum_pow += std::pow(x, k);
  const double scale = std::pow(sum_pow / n, 1.0 / k);
  return Weibull(k, scale);
}

Pareto fit_pareto(std::span<const double> sample) {
  require_positive(sample, "fit_pareto");
  const double xm = *std::min_element(sample.begin(), sample.end());
  double s = 0.0;
  for (double x : sample) s += std::log(x / xm);
  if (s <= 0)
    throw failmine::DomainError(
        "fit_pareto requires at least one value above the minimum");
  const double alpha = static_cast<double>(sample.size()) / s;
  return Pareto(xm, alpha);
}

LogNormal fit_lognormal(std::span<const double> sample) {
  require_positive(sample, "fit_lognormal");
  if (sample.size() < 2)
    throw failmine::DomainError("fit_lognormal requires >= 2 observations");
  const double mu = mean_log(sample);
  double s2 = 0.0;
  for (double x : sample) {
    const double d = std::log(x) - mu;
    s2 += d * d;
  }
  s2 /= static_cast<double>(sample.size());
  if (s2 <= 0)
    throw failmine::DomainError("fit_lognormal requires non-constant values");
  return LogNormal(mu, std::sqrt(s2));
}

GammaDist fit_gamma(std::span<const double> sample) {
  require_positive(sample, "fit_gamma");
  if (sample.size() < 2)
    throw failmine::DomainError("fit_gamma requires >= 2 observations");
  const double m = stats::mean(sample);
  const double s = std::log(m) - mean_log(sample);
  if (s <= 0)
    throw failmine::DomainError("fit_gamma requires non-constant values");
  // Initial guess (Minka 2002), then Newton on log(k) - digamma(k) = s.
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s);
  k = std::clamp(k, 1e-6, 1e6);
  int iterations = 0;
  for (int iter = 0; iter < 100; ++iter) {
    iterations = iter + 1;
    const double f = std::log(k) - stats::digamma(k) - s;
    const double fp = 1.0 / k - stats::trigamma(k);
    if (fp == 0.0) break;
    double next = k - f / fp;
    if (!(next > 0)) next = k / 2.0;
    if (std::fabs(next - k) < 1e-12 * (1.0 + k)) {
      k = next;
      break;
    }
    k = std::clamp(next, 1e-9, 1e9);
  }
  iterations_histogram().observe(iterations);
  return GammaDist(k, m / k);
}

Erlang fit_erlang(std::span<const double> sample, int k_max) {
  require_positive(sample, "fit_erlang");
  if (k_max < 1) throw failmine::DomainError("fit_erlang requires k_max >= 1");
  const double m = stats::mean(sample);
  const double n = static_cast<double>(sample.size());
  double sum_log = 0.0;
  for (double x : sample) sum_log += std::log(x);
  // With rate k/m the rate term sums to k*n, so the profile log-likelihood
  // is n k log(k/m) + (k-1) sum(log x) - k n - n lgamma(k): one pass over
  // the sample, then O(k_max).
  double best_ll = -std::numeric_limits<double>::infinity();
  int best_k = 1;
  for (int k = 1; k <= k_max; ++k) {
    const double kd = static_cast<double>(k);
    const double ll = n * kd * std::log(kd / m) + (kd - 1.0) * sum_log -
                      kd * n - n * stats::log_gamma(kd);
    if (ll > best_ll) {
      best_ll = ll;
      best_k = k;
    }
  }
  return Erlang(best_k, static_cast<double>(best_k) / m);
}

InverseGaussian fit_inverse_gaussian(std::span<const double> sample) {
  require_positive(sample, "fit_inverse_gaussian");
  if (sample.size() < 2)
    throw failmine::DomainError("fit_inverse_gaussian requires >= 2 observations");
  const double mu = stats::mean(sample);
  double s = 0.0;
  for (double x : sample) s += 1.0 / x - 1.0 / mu;
  if (s <= 0)
    throw failmine::DomainError(
        "fit_inverse_gaussian requires non-constant values");
  const double lambda = static_cast<double>(sample.size()) / s;
  return InverseGaussian(mu, lambda);
}

NormalDist fit_normal(std::span<const double> sample) {
  if (sample.size() < 2)
    throw failmine::DomainError("fit_normal requires >= 2 observations");
  const double mu = stats::mean(sample);
  double s2 = 0.0;
  for (double x : sample) s2 += (x - mu) * (x - mu);
  s2 /= static_cast<double>(sample.size());
  if (s2 <= 0) throw failmine::DomainError("fit_normal requires non-constant values");
  return NormalDist(mu, std::sqrt(s2));
}

Rayleigh fit_rayleigh(std::span<const double> sample) {
  require_positive(sample, "fit_rayleigh");
  double s2 = 0.0;
  for (double x : sample) s2 += x * x;
  s2 /= 2.0 * static_cast<double>(sample.size());
  return Rayleigh(std::sqrt(s2));
}

}  // namespace failmine::distfit
