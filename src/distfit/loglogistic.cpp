#include "distfit/loglogistic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "distfit/optimize.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace failmine::distfit {

LogLogistic::LogLogistic(double alpha, double beta) : alpha_(alpha), beta_(beta) {
  if (alpha <= 0 || beta <= 0)
    throw failmine::DomainError("loglogistic parameters must be positive");
}

double LogLogistic::pdf(double x) const {
  if (x <= 0) return 0.0;
  const double z = std::pow(x / alpha_, beta_);
  const double denom = (1.0 + z) * (1.0 + z);
  return (beta_ / alpha_) * std::pow(x / alpha_, beta_ - 1.0) / denom;
}

double LogLogistic::cdf(double x) const {
  if (x <= 0) return 0.0;
  return 1.0 / (1.0 + std::pow(x / alpha_, -beta_));
}

double LogLogistic::quantile(double p) const {
  if (p <= 0.0 || p >= 1.0)
    throw failmine::DomainError("quantile requires p in (0,1)");
  return alpha_ * std::pow(p / (1.0 - p), 1.0 / beta_);
}

double LogLogistic::mean() const {
  if (beta_ <= 1.0) return std::numeric_limits<double>::infinity();
  const double b = std::numbers::pi / beta_;
  return alpha_ * b / std::sin(b);
}

double LogLogistic::variance() const {
  if (beta_ <= 2.0) return std::numeric_limits<double>::infinity();
  const double b = std::numbers::pi / beta_;
  const double m = b / std::sin(b);
  return alpha_ * alpha_ * (2.0 * b / std::sin(2.0 * b) - m * m);
}

double LogLogistic::sample(util::Rng& rng) const {
  double u;
  do {
    u = rng.uniform();
  } while (u <= 0.0 || u >= 1.0);
  return quantile(u);
}

LogLogistic fit_loglogistic(std::span<const double> sample) {
  if (sample.size() < 2)
    throw failmine::DomainError("fit_loglogistic requires >= 2 observations");
  for (double x : sample)
    if (x <= 0)
      throw failmine::DomainError(
          "fit_loglogistic requires strictly positive values");

  // Start from the log-space moment estimates: log X is logistic with
  // location log(alpha) and scale 1/beta; Var = pi^2 / (3 beta^2).
  std::vector<double> logs;
  logs.reserve(sample.size());
  for (double x : sample) logs.push_back(std::log(x));
  const double mu = stats::mean(logs);
  const double sd = stats::stddev(logs);
  if (sd <= 0)
    throw failmine::DomainError("fit_loglogistic requires non-constant values");
  const double beta0 = std::numbers::pi / (sd * std::sqrt(3.0));

  // Optimize in log-parameter space so positivity is built in. With
  // y = log x - log alpha, log pdf = log beta - log alpha + (beta-1) y
  // - 2 softplus(beta y), so the sum of the linear terms is closed-form
  // and each point costs one exp and one log1p.
  double sum_log = 0.0;
  for (double l : logs) sum_log += l;
  const double n = static_cast<double>(logs.size());
  const auto neg_log_lik = [&](const std::vector<double>& p) {
    const double alpha = std::exp(p[0]);
    const double beta = std::exp(p[1]);
    if (!std::isfinite(alpha) || !std::isfinite(beta) || alpha <= 0 || beta <= 0)
      return std::numeric_limits<double>::infinity();
    double softplus = 0.0;
    for (double l : logs) {
      const double z = beta * (l - p[0]);
      softplus += std::max(z, 0.0) + std::log1p(std::exp(-std::fabs(z)));
    }
    return 2.0 * softplus - (beta - 1.0) * (sum_log - n * p[0]) -
           n * (p[1] - p[0]);
  };
  const auto result = nelder_mead(neg_log_lik, {mu, std::log(beta0)});
  return LogLogistic(std::exp(result.x[0]), std::exp(result.x[1]));
}

}  // namespace failmine::distfit
