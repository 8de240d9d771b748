#include "distfit/gamma_dist.hpp"

#include <cmath>

#include "stats/special.hpp"
#include "util/error.hpp"

namespace failmine::distfit {

GammaDist::GammaDist(double shape, double scale) : shape_(shape), scale_(scale) {
  if (shape <= 0 || scale <= 0)
    throw failmine::DomainError("gamma parameters must be positive");
}

double GammaDist::pdf(double x) const {
  if (x < 0) return 0.0;
  if (x == 0) return shape_ < 1.0 ? 0.0 : (shape_ == 1.0 ? 1.0 / scale_ : 0.0);
  return std::exp((shape_ - 1.0) * std::log(x) - x / scale_ -
                  stats::log_gamma(shape_) - shape_ * std::log(scale_));
}

double GammaDist::cdf(double x) const {
  if (x <= 0) return 0.0;
  return stats::gamma_p(shape_, x / scale_);
}

double GammaDist::sample(util::Rng& rng) const {
  return rng.gamma(shape_, scale_);
}

}  // namespace failmine::distfit
