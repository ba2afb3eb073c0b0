#pragma once
// Uniform cubic B-spline least-squares fitting (ISABELA's curve stage).
//
// ISABELA sorts each window so the data become a smooth monotone curve,
// then approximates that curve with a low-order spline. We fit K control
// coefficients of a uniform cubic B-spline over [0, n-1] by ordinary least
// squares; the normal equations are banded (bandwidth 3) and solved with a
// banded Cholesky factorization.
//
// Everything but the right-hand side depends only on (n, K): each sample's
// segment and blending weights, and the ridge-regularised normal matrix
// with its Cholesky factor. That geometry is built once per (n, K) and
// kept in a small per-thread cache, so a fit costs the Aᵀy accumulation
// and two triangular solves, and an evaluation one weighted sum per
// sample. The arithmetic is the per-window computation's, step for step,
// so cached and uncached results are bit-identical. Only shapes an
// encoder can produce (4 <= K <= max(4, n)) whose table fits the cache's
// byte cap are cached; anything else — a hostile decode header included —
// is computed directly and never grows the cache.

#include <cstddef>
#include <span>
#include <vector>

namespace cesm::comp {

/// Fitted uniform cubic B-spline over sample indices 0..n-1.
class CubicBSpline {
 public:
  /// Fit `coeff_count` (>= 4) coefficients to `values` by least squares.
  static CubicBSpline fit(std::span<const float> values, std::size_t coeff_count);

  /// Construct from stored coefficients (decode path).
  CubicBSpline(std::vector<double> coefficients, std::size_t sample_count);

  /// Evaluate the spline at sample index i (0 <= i < sample_count).
  [[nodiscard]] double evaluate(std::size_t i) const;

  /// Evaluate at every sample index.
  [[nodiscard]] std::vector<double> evaluate_all() const;

  [[nodiscard]] const std::vector<double>& coefficients() const { return coeff_; }
  [[nodiscard]] std::size_t sample_count() const { return n_; }

  /// Geometries held by the calling thread's cache (for tests).
  [[nodiscard]] static std::size_t cached_geometries();

 private:
  std::vector<double> coeff_;
  std::size_t n_;
};

/// The four cubic B-spline blending weights at local parameter u.
void bspline_weights(double u, double w[4]);

/// Solve the symmetric positive-definite banded system A x = b where A is
/// given in banded storage: band[r][d] = A(r, r+d) for d = 0..bandwidth.
/// Overwrites `b` with the solution. Throws InvalidArgument if A is not
/// positive definite.
void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bandwidth);

}  // namespace cesm::comp
