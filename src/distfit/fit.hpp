// failmine/distfit/fit.hpp
//
// Maximum-likelihood fitters for every family in the candidate set.
//
// All fitters require strictly positive samples (runtimes, intervals)
// except fit_normal, and throw DomainError on violations. Closed forms are
// used where they exist; Weibull and Gamma use Newton iterations on the
// profile-likelihood equations, and Erlang scans a closed-form profile.

#pragma once

#include <memory>
#include <span>

#include "distfit/erlang.hpp"
#include "distfit/exponential.hpp"
#include "distfit/gamma_dist.hpp"
#include "distfit/inverse_gaussian.hpp"
#include "distfit/lognormal.hpp"
#include "distfit/normal_dist.hpp"
#include "distfit/pareto.hpp"
#include "distfit/rayleigh.hpp"
#include "distfit/weibull.hpp"

namespace failmine::distfit {

/// MLE: rate = 1 / mean.
Exponential fit_exponential(std::span<const double> sample);

/// MLE via Newton on the profile shape equation
///   1/k = sum(x^k log x)/sum(x^k) - mean(log x).
Weibull fit_weibull(std::span<const double> sample);

/// MLE: xm = min(sample), alpha = n / sum log(x / xm).
/// Points equal to xm contribute 0 to the sum; requires at least one
/// sample value strictly above xm.
Pareto fit_pareto(std::span<const double> sample);

/// MLE on logs: mu = mean(log x), sigma^2 = (1/n) sum (log x - mu)^2.
LogNormal fit_lognormal(std::span<const double> sample);

/// MLE via Newton on log(k) - digamma(k) = log(mean) - mean(log).
GammaDist fit_gamma(std::span<const double> sample);

/// Profile MLE over integer k in [1, k_max], rate = k / mean for each k;
/// picks the k with the highest likelihood (the smallest on ties). The
/// profile is closed-form, n k log(k/m) + (k-1) sum(log x) - k n
/// - n lgamma(k), so the cost is one pass over the sample plus O(k_max).
Erlang fit_erlang(std::span<const double> sample, int k_max = 50);

/// MLE: mu = mean, 1/lambda = (1/n) sum (1/x - 1/mu).
InverseGaussian fit_inverse_gaussian(std::span<const double> sample);

/// MLE: mu = mean, sigma^2 = (1/n) sum (x - mu)^2 (biased MLE variant).
NormalDist fit_normal(std::span<const double> sample);

/// MLE: sigma^2 = (1/2n) sum x^2.
Rayleigh fit_rayleigh(std::span<const double> sample);

}  // namespace failmine::distfit
