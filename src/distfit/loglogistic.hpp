// failmine/distfit/loglogistic.hpp
//
// Log-logistic (Fisk) distribution — a standard extra candidate in
// failure-time studies: heavier tail than log-normal, closed-form CDF.

#pragma once

#include "distfit/distribution.hpp"

namespace failmine::distfit {

/// Log-logistic with scale alpha > 0 and shape beta > 0; support (0, inf).
/// CDF F(x) = 1 / (1 + (x/alpha)^-beta).
class LogLogistic final : public Distribution {
 public:
  LogLogistic(double alpha, double beta);

  std::string name() const override { return "loglogistic"; }
  double pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;      ///< +inf for beta <= 1
  double variance() const override;  ///< +inf for beta <= 2
  double sample(util::Rng& rng) const override;
  std::size_t param_count() const override { return 2; }
  std::vector<Param> params() const override {
    return {{"alpha", alpha_}, {"beta", beta_}};
  }
  std::unique_ptr<Distribution> clone() const override {
    return std::make_unique<LogLogistic>(*this);
  }

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  double alpha_;
  double beta_;
};

/// MLE via Nelder-Mead on the negative log-likelihood (no closed form),
/// evaluated in log space from the logs of the sample.
LogLogistic fit_loglogistic(std::span<const double> sample);

}  // namespace failmine::distfit
