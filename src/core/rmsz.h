#pragma once
// CESM-PVT ensemble machinery (§4.3, eqs. 6–7 and 10).
//
// Holds one variable's full perturbation ensemble and answers:
//   * RMSZ_X^m — the root-mean-square Z-score of member m against the
//     sub-ensemble {E \ m}  (eqs. 6–7), for the original member or for an
//     arbitrary (e.g. reconstructed) dataset standing in for member m;
//   * the E_nmax distribution (eq. 10) — each member's normalized maximum
//     pointwise distance to the rest of the ensemble;
//   * per-member global means (the PVT range-shift check).
//
// Leave-one-out statistics are computed from per-point sufficient
// statistics (sum and sum of squares), so evaluating any member is O(N)
// rather than O(N·M).

#include <cmath>
#include <utility>
#include <vector>

#include "climate/field.h"
#include "stats/kernels.h"
#include "util/bytes.h"

namespace cesm::core {

/// Spread below this fraction of |mean| is float32 representation noise;
/// z-scores against it are meaningless (eq. 6 degenerate-spread guard).
inline constexpr double kDegenerateSpreadRelTol = 3e-7;

/// RMSZ (eq. 7) from a z-score accumulation — the exact finalization
/// rmsz_of() applies, shared with the streaming path, which accumulates
/// chunk-by-chunk (stats::ZScoreStream).
inline double rmsz_from_accum(const stats::kernels::ZScoreAccum& acc) {
  if (acc.used == 0) return 0.0;
  return std::sqrt(acc.sum_z2 / static_cast<double>(acc.used));
}

class EnsembleStats {
 public:
  /// Takes ownership of all members' fields (same variable, same shape,
  /// same fill layout). Requires at least 3 members.
  explicit EnsembleStats(std::vector<climate::Field> members);

  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] std::size_t point_count() const { return valid_points_; }
  [[nodiscard]] const climate::Field& member(std::size_t m) const { return members_[m]; }

  /// RMSZ of arbitrary data standing in for member m: each point is
  /// z-scored against the sub-ensemble {E \ m} (eq. 6) and the RMS taken
  /// over points with non-degenerate sub-ensemble spread (eq. 7).
  [[nodiscard]] double rmsz_of(std::size_t m, std::span<const float> data) const;

  /// RMSZ_X^m of the original member m.
  [[nodiscard]] double rmsz(std::size_t m) const { return rmsz_dist_[m]; }

  /// All member RMSZ scores (the Figure 2 histogram).
  [[nodiscard]] const std::vector<double>& rmsz_distribution() const { return rmsz_dist_; }

  /// {min, max} of the RMSZ distribution, precomputed once at build time.
  /// The eq. (8) acceptance window needs this per member per variant;
  /// scanning the distribution there again would be an O(members) rescan
  /// repeated members x variants times.
  [[nodiscard]] std::pair<double, double> rmsz_range() const {
    return {rmsz_min_, rmsz_max_};
  }

  /// E_nmax^{m_X} (eq. 10) for member m.
  [[nodiscard]] double enmax(std::size_t m) const { return enmax_dist_[m]; }

  /// All member E_nmax values (the Figure 3 box plot).
  [[nodiscard]] const std::vector<double>& enmax_distribution() const { return enmax_dist_; }

  /// R_{E_nmax^X}: the range (max - min) of the E_nmax distribution,
  /// the denominator of acceptance eq. (11).
  [[nodiscard]] double enmax_range() const;

  /// Range R_X^m of member m over valid points.
  [[nodiscard]] double member_range(std::size_t m) const { return ranges_[m]; }

  /// Equal-weight global mean of member m over valid points.
  [[nodiscard]] double global_mean(std::size_t m) const { return global_means_[m]; }
  [[nodiscard]] const std::vector<double>& global_means() const { return global_means_; }

  /// Shared validity mask of the ensemble (empty = every point valid;
  /// the constructor enforces that all members agree on it). Lets callers
  /// reuse it for per-member metric passes instead of reallocating
  /// Field::valid_mask() per evaluation.
  [[nodiscard]] std::span<const std::uint8_t> mask() const { return mask_; }

  /// Per-point sum and sum of squares over all members (eq. 6 inputs).
  [[nodiscard]] std::span<const double> sum() const { return sum_; }
  [[nodiscard]] std::span<const double> sum_sq() const { return sum_sq_; }

  /// Exact-bit snapshot of the members and every derived product, for the
  /// content-addressed ensemble cache (core/ensemble_cache.h). A
  /// deserialized instance is indistinguishable from a freshly built one:
  /// all floating-point state round-trips via bit casts, so cached and
  /// uncached runs produce bit-identical results.
  void serialize(ByteWriter& w) const;
  /// Inverse of serialize(); throws FormatError on a malformed stream.
  /// (The disk cache additionally checksums entries, so this mostly
  /// guards against version skew and in-memory corruption.)
  [[nodiscard]] static EnsembleStats deserialize(ByteReader& r);

  /// Resident footprint (members + derived arrays) for cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  EnsembleStats() = default;  ///< deserialize() fills every member itself

  void build();
  /// Derive the cached rmsz_range() extremes from rmsz_dist_ (shared by
  /// build() and deserialize()).
  void finalize_rmsz_range();

  std::vector<climate::Field> members_;
  std::vector<std::uint8_t> mask_;      // shared validity mask (may be empty)
  std::size_t valid_points_ = 0;

  // Per-point sufficient statistics over all members.
  std::vector<double> sum_;
  std::vector<double> sum_sq_;
  // Per-point extremes with runners-up, for leave-one-out max distances.
  std::vector<float> max1_, max2_, min1_, min2_;
  std::vector<std::uint32_t> argmax_, argmin_;

  std::vector<double> rmsz_dist_;
  std::vector<double> enmax_dist_;
  std::vector<double> ranges_;
  std::vector<double> global_means_;
  double rmsz_min_ = 0.0;
  double rmsz_max_ = 0.0;
};

}  // namespace cesm::core
