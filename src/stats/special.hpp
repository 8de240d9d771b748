// failmine/stats/special.hpp
//
// Special functions needed by the fitters and hypothesis tests.
//
// Only the handful we need: the regularized incomplete gamma functions
// (chi-square p-values, gamma/Erlang CDFs), log-gamma and digamma (gamma
// and Erlang likelihoods, gamma MLE), and the standard normal
// CDF/quantile (inverse-Gaussian CDF, confidence bands).

#pragma once

namespace failmine::stats {

/// log |Gamma(x)|: the value of std::lgamma, computed through lgamma_r.
/// std::lgamma also stores the sign of Gamma(x) in the C library's global
/// `signgam`, a data race when fits run on several threads at once (the
/// takeaway report runs its fits side by side); every fit calls this
/// instead.
double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x) / Gamma(a).
/// Requires a > 0, x >= 0. Series for x < a+1, continued fraction otherwise.
double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double gamma_q(double a, double x);

/// Digamma (psi) function for x > 0.
double digamma(double x);

/// Trigamma (psi') function for x > 0.
double trigamma(double x);

/// Standard normal CDF.
double normal_cdf(double z);

/// Standard normal quantile (Acklam's rational approximation, |err| < 1e-9).
double normal_quantile(double p);

}  // namespace failmine::stats
