#include "distfit/erlang.hpp"

#include <cmath>

#include "stats/special.hpp"
#include "util/error.hpp"

namespace failmine::distfit {

Erlang::Erlang(int k, double rate) : k_(k), rate_(rate) {
  if (k < 1) throw failmine::DomainError("erlang k must be >= 1");
  if (rate <= 0) throw failmine::DomainError("erlang rate must be positive");
}

double Erlang::pdf(double x) const {
  if (x < 0) return 0.0;
  if (x == 0) return k_ == 1 ? rate_ : 0.0;
  const double k = static_cast<double>(k_);
  return std::exp(k * std::log(rate_) + (k - 1.0) * std::log(x) - rate_ * x -
                  stats::log_gamma(k));
}

double Erlang::cdf(double x) const {
  if (x <= 0) return 0.0;
  return stats::gamma_p(static_cast<double>(k_), rate_ * x);
}

double Erlang::sample(util::Rng& rng) const { return rng.erlang(k_, rate_); }

}  // namespace failmine::distfit
