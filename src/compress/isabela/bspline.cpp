#include "compress/isabela/bspline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>

#include "util/error.h"

namespace cesm::comp {

namespace {

constexpr std::size_t kBandwidth = 3;
/// Per-thread cache bounds: a handful of (n, K) shapes (the full window
/// and a few tails) cover a sweep.
constexpr std::size_t kMaxGeometries = 16;
constexpr std::size_t kMaxCacheBytes = std::size_t{8} << 20;

using Band = std::array<double, kBandwidth + 1>;

/// Map sample index i of n to (segment, local parameter u in [0,1)) for
/// k coefficients.
void locate(std::size_t i, std::size_t n, std::size_t k, std::size_t& segment, double& u) {
  const std::size_t segments = k - 3;
  const double t = n > 1
                       ? static_cast<double>(i) / static_cast<double>(n - 1) *
                             static_cast<double>(segments)
                       : 0.0;
  segment = std::min(static_cast<std::size_t>(t), segments - 1);
  u = t - static_cast<double>(segment);
}

/// In-place banded Cholesky: A = L Lᵀ with band[r][d] holding L(r+d, r)
/// after factorization (the upper-band storage is reused symmetrically).
template <class Rows>
void factor_banded(Rows& band, std::size_t n, std::size_t bw) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = band[j][0];
    for (std::size_t k = (j > bw ? j - bw : 0); k < j; ++k) {
      const std::size_t d = j - k;
      if (d <= bw) diag -= band[k][d] * band[k][d];
    }
    if (diag <= 0.0) throw InvalidArgument("banded system not positive definite");
    const double ljj = std::sqrt(diag);
    band[j][0] = ljj;
    for (std::size_t d = 1; d <= bw && j + d < n; ++d) {
      double v = band[j][d];
      // L(j+d, j) = (A(j+d, j) - sum_k L(j+d,k) L(j,k)) / L(j,j)
      for (std::size_t k = (j + d > bw ? j + d - bw : 0); k < j; ++k) {
        const std::size_t d1 = j + d - k;
        const std::size_t d2 = j - k;
        if (d1 <= bw && d2 <= bw) v -= band[k][d1] * band[k][d2];
      }
      band[j][d] = v / ljj;
    }
  }
}

/// Forward then backward substitution with a factor from factor_banded.
template <class Rows>
void substitute_banded(const Rows& band, std::span<double> b, std::size_t bw) {
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t d = 1; d <= bw && d <= i; ++d) {
      v -= band[i - d][d] * b[i - d];
    }
    b[i] = v / band[i][0];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t d = 1; d <= bw && ii + d < n; ++d) {
      v -= band[ii][d] * b[ii + d];
    }
    b[ii] = v / band[ii][0];
  }
}

/// The data-independent part of fitting k coefficients to n samples.
struct Geometry {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<std::uint32_t> segment;         ///< per sample
  std::vector<std::array<double, 4>> weight;  ///< per sample
  /// The ridge-regularised normal matrix AᵀA; its Cholesky factor once
  /// `factored` (done on the first fit, so evaluation alone never needs
  /// the matrix to be positive definite).
  std::vector<Band> band;
  bool factored = false;
  std::uint64_t last_use = 0;

  [[nodiscard]] static std::size_t bytes_for(std::size_t n, std::size_t k) {
    return n * (sizeof(std::uint32_t) + sizeof(std::array<double, 4>)) + k * sizeof(Band);
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_for(n, k); }

  void factor() {
    if (factored) return;
    std::vector<Band> f = band;
    factor_banded(f, k, kBandwidth);
    band = std::move(f);
    factored = true;
  }
};

/// Largest sample count whose per-sample table alone fits the byte cap;
/// it also keeps bytes_for() far from overflow for hostile headers.
constexpr std::size_t kMaxCachedSamples =
    kMaxCacheBytes / (sizeof(std::uint32_t) + sizeof(std::array<double, 4>));

Geometry build_geometry(std::size_t n, std::size_t k) {
  Geometry g;
  g.n = n;
  g.k = k;
  g.segment.resize(n);
  g.weight.resize(n);
  g.band.assign(k, Band{});
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t seg;
    double u;
    locate(i, n, k, seg, u);
    std::array<double, 4>& w = g.weight[i];
    bspline_weights(u, w.data());
    g.segment[i] = static_cast<std::uint32_t>(seg);
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a; b < 4; ++b) g.band[seg + a][b - a] += w[a] * w[b];
    }
  }
  // Tiny ridge keeps the factorization stable when a coefficient has thin
  // support (short tail windows).
  double trace = 0.0;
  for (std::size_t j = 0; j < k; ++j) trace += g.band[j][0];
  const double ridge = 1e-9 * (trace / static_cast<double>(k)) + 1e-12;
  for (std::size_t j = 0; j < k; ++j) g.band[j][0] += ridge;
  return g;
}

/// The calling thread's geometries, least recently used evicted first.
struct GeometryCache {
  std::vector<std::unique_ptr<Geometry>> entries;
  std::size_t bytes = 0;
  std::uint64_t tick = 0;

  /// The geometry for (n, k), built on a miss; null when the shape is not
  /// one an encoder produces or its table alone exceeds the cache.
  Geometry* find(std::size_t n, std::size_t k) {
    if (n < 1 || n > kMaxCachedSamples || k < 4 || k > std::max<std::size_t>(4, n)) {
      return nullptr;
    }
    for (const std::unique_ptr<Geometry>& g : entries) {
      if (g->n == n && g->k == k) {
        g->last_use = ++tick;
        return g.get();
      }
    }
    const std::size_t need = Geometry::bytes_for(n, k);
    if (need > kMaxCacheBytes) return nullptr;
    while (!entries.empty() &&
           (entries.size() >= kMaxGeometries || bytes + need > kMaxCacheBytes)) {
      const auto victim = std::min_element(
          entries.begin(), entries.end(),
          [](const auto& a, const auto& b) { return a->last_use < b->last_use; });
      bytes -= (*victim)->bytes();
      entries.erase(victim);
    }
    auto g = std::make_unique<Geometry>(build_geometry(n, k));
    g->last_use = ++tick;
    bytes += need;
    entries.push_back(std::move(g));
    return entries.back().get();
  }
};

thread_local GeometryCache t_geometries;

}  // namespace

void bspline_weights(double u, double w[4]) {
  const double u2 = u * u;
  const double u3 = u2 * u;
  w[0] = (1.0 - 3.0 * u + 3.0 * u2 - u3) / 6.0;
  w[1] = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0;
  w[2] = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0;
  w[3] = u3 / 6.0;
}

void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bw) {
  CESM_REQUIRE(band.size() == b.size());
  factor_banded(band, b.size(), bw);
  substitute_banded(band, b, bw);
}

CubicBSpline::CubicBSpline(std::vector<double> coefficients, std::size_t sample_count)
    : coeff_(std::move(coefficients)), n_(sample_count) {
  CESM_REQUIRE(coeff_.size() >= 4);
  CESM_REQUIRE(n_ >= 1);
}

double CubicBSpline::evaluate(std::size_t i) const {
  std::size_t seg;
  double u, w[4];
  locate(i, n_, coeff_.size(), seg, u);
  bspline_weights(u, w);
  return w[0] * coeff_[seg] + w[1] * coeff_[seg + 1] + w[2] * coeff_[seg + 2] +
         w[3] * coeff_[seg + 3];
}

std::vector<double> CubicBSpline::evaluate_all() const {
  std::vector<double> out(n_);
  const Geometry* g = t_geometries.find(n_, coeff_.size());
  if (g == nullptr) {
    for (std::size_t i = 0; i < n_; ++i) out[i] = evaluate(i);
    return out;
  }
  const double* c = coeff_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t s = g->segment[i];
    const std::array<double, 4>& w = g->weight[i];
    out[i] = w[0] * c[s] + w[1] * c[s + 1] + w[2] * c[s + 2] + w[3] * c[s + 3];
  }
  return out;
}

CubicBSpline CubicBSpline::fit(std::span<const float> values, std::size_t coeff_count) {
  const std::size_t n = values.size();
  CESM_REQUIRE(n >= 1);
  coeff_count = std::max<std::size_t>(4, coeff_count);

  Geometry* g = t_geometries.find(n, coeff_count);
  Geometry uncached;
  if (g == nullptr) {
    uncached = build_geometry(n, coeff_count);
    g = &uncached;
  }
  g->factor();

  // Only the right-hand side Aᵀy depends on the data.
  std::vector<double> rhs(coeff_count, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = g->segment[i];
    const std::array<double, 4>& w = g->weight[i];
    const double y = static_cast<double>(values[i]);
    for (std::size_t a = 0; a < 4; ++a) rhs[s + a] += w[a] * y;
  }
  substitute_banded(g->band, rhs, kBandwidth);
  return CubicBSpline(std::move(rhs), n);
}

std::size_t CubicBSpline::cached_geometries() { return t_geometries.entries.size(); }

}  // namespace cesm::comp
