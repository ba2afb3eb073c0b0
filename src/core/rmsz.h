#pragma once
// CESM-PVT ensemble machinery (§4.3, eqs. 6–7 and 10).
//
// Holds one variable's perturbation-ensemble statistics and answers:
//   * RMSZ_X^m — the root-mean-square Z-score of member m against the
//     sub-ensemble {E \ m}  (eqs. 6–7), for the original member or for an
//     arbitrary (e.g. reconstructed) dataset standing in for member m;
//   * the E_nmax distribution (eq. 10) — each member's normalized maximum
//     pointwise distance to the rest of the ensemble;
//   * per-member summaries and global means (the PVT range-shift check).
//
// Leave-one-out statistics are computed from per-point sufficient
// statistics (sum and sum of squares), so evaluating any member is O(N)
// rather than O(N·M).
//
// One build produces them all (SufficientStats::build), whatever holds the
// members: EnsembleStats feeds it views into resident fields, the
// out-of-core leg (core/ooc.h) feeds it chunks read from a spill store.
// Every product depends only on per-point arithmetic in member order and
// on the block-realigning streams of stats/kernels.h, so both feeds give
// bit-identical statistics for any chunk partition and worker count.

#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "climate/field.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"
#include "util/bytes.h"

namespace cesm::util {
class MemoryBudget;
}

namespace cesm::core {

/// Spread below this fraction of |mean| is float32 representation noise;
/// z-scores against it are meaningless (eq. 6 degenerate-spread guard).
inline constexpr double kDegenerateSpreadRelTol = 3e-7;

/// RMSZ (eq. 7) from a z-score accumulation — the exact finalization
/// rmsz_of() applies, shared with the verification pipeline, which
/// accumulates chunk by chunk (stats::kernels::LooZScoreStream).
inline double rmsz_from_accum(const stats::kernels::ZScoreAccum& acc) {
  if (acc.used == 0) return 0.0;
  return std::sqrt(acc.sum_z2 / static_cast<double>(acc.used));
}

/// How the statistics build reaches member values. The points are split
/// into chunks at offsets(); pass 1 takes one (member, chunk) at a time,
/// pass 2 walks one member's chunks in offset order.
class MemberChunks {
 public:
  /// Receives (element offset, values) of one chunk.
  using Visit = std::function<void(std::size_t, std::span<const float>)>;

  virtual ~MemberChunks() = default;

  [[nodiscard]] virtual std::size_t member_count() const = 0;
  /// Chunk boundaries: 0 first, the point count last.
  [[nodiscard]] virtual std::span<const std::size_t> offsets() const = 0;
  /// The value marking invalid points, if the variable has one.
  [[nodiscard]] virtual std::optional<float> fill() const = 0;
  /// Length of each read buffer the build hands in: the largest chunk when
  /// chunks are read, 0 when they are views into resident data.
  [[nodiscard]] virtual std::size_t buffer_elems() const = 0;

  /// Member m on chunk c, as a view or read into `buf`.
  [[nodiscard]] virtual std::span<const float> chunk(std::uint32_t m, std::size_t c,
                                                     std::span<float> buf) const = 0;
  /// visit() every chunk of member m in offset order, reading through the
  /// two buffers. The partition may be coarser than offsets().
  virtual void walk(std::uint32_t m, std::span<float> buf0, std::span<float> buf1,
                    const Visit& visit) const = 0;
};

/// The ensemble products every §4.3 verdict is scored against: the shared
/// validity mask, per-point sum/sum² and leave-one-out extremes, each
/// member's summary, the RMSZ and E_nmax distributions and their ranges.
class SufficientStats {
 public:
  /// Two passes over `src`. Pass 1 runs in parallel over chunks: each
  /// walks the members in order through the sum/sum² and extreme kernels
  /// (order-sensitive float adds, first-arrival argmax ties), member 0
  /// defines the validity mask and every later member must match it point
  /// by point. Pass 2 runs in parallel over members: one walk per member
  /// feeds its moments and z-scores and folds its E_nmax distance.
  /// `budget`, when non-null, is charged for every array and buffer.
  [[nodiscard]] static SufficientStats build(const MemberChunks& src,
                                             util::MemoryBudget* budget = nullptr);

  [[nodiscard]] std::size_t member_count() const { return summaries_.size(); }
  /// Number of valid points.
  [[nodiscard]] std::size_t point_count() const { return valid_points_; }

  /// Shared validity mask (empty = every point valid, including a fill
  /// value that never occurs).
  [[nodiscard]] std::span<const std::uint8_t> mask() const { return mask_; }

  /// Per-point sum and sum of squares over all members (eq. 6 inputs).
  [[nodiscard]] std::span<const double> sum() const { return sum_; }
  [[nodiscard]] std::span<const double> sum_sq() const { return sum_sq_; }

  /// RMSZ_X^m of the original member m.
  [[nodiscard]] double rmsz(std::size_t m) const { return rmsz_dist_[m]; }
  /// All member RMSZ scores (the Figure 2 histogram).
  [[nodiscard]] const std::vector<double>& rmsz_distribution() const { return rmsz_dist_; }
  /// {min, max} of the RMSZ distribution: the eq. (8) acceptance window,
  /// needed per member per variant, so it is derived once.
  [[nodiscard]] std::pair<double, double> rmsz_range() const {
    return {rmsz_min_, rmsz_max_};
  }

  /// E_nmax^{m_X} (eq. 10) for member m.
  [[nodiscard]] double enmax(std::size_t m) const { return enmax_dist_[m]; }
  /// All member E_nmax values (the Figure 3 box plot).
  [[nodiscard]] const std::vector<double>& enmax_distribution() const { return enmax_dist_; }
  /// R_{E_nmax^X}: max - min of the E_nmax distribution, the denominator
  /// of acceptance eq. (11).
  [[nodiscard]] double enmax_range() const { return enmax_range_; }

  /// The §4.1 summary of member m over valid points.
  [[nodiscard]] const stats::Summary& member_summary(std::size_t m) const {
    return summaries_[m];
  }
  /// Range R_X^m of member m over valid points.
  [[nodiscard]] double member_range(std::size_t m) const { return summaries_[m].range(); }
  /// Equal-weight global mean of member m over valid points.
  [[nodiscard]] double global_mean(std::size_t m) const { return summaries_[m].mean; }
  [[nodiscard]] std::vector<double> global_means() const;

 protected:
  SufficientStats() = default;

  /// Exact-bit snapshot of the products, for EnsembleStats' cache entry.
  void serialize(ByteWriter& w) const;
  /// Inverse of serialize() for `points` points and `members` members;
  /// throws FormatError on a malformed stream.
  [[nodiscard]] static SufficientStats deserialize(ByteReader& r, std::size_t points,
                                                   std::size_t members);
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// E_nmax (eq. 10) numerator over the chunk of member m at offset `lo`:
  /// its largest pointwise distance to any other member over valid points.
  /// A max, so the chunk partition cannot change a member's fold.
  [[nodiscard]] double max_distance(std::uint32_t m, std::size_t lo,
                                    std::span<const float> x) const;
  /// Derive the cached distribution ranges (shared by build() and
  /// deserialize()).
  void finalize_ranges();

  std::vector<std::uint8_t> mask_;
  std::size_t valid_points_ = 0;

  std::vector<double> sum_;
  std::vector<double> sum_sq_;
  // Per-point extremes with runners-up, for leave-one-out max distances.
  std::vector<float> max1_, max2_, min1_, min2_;
  std::vector<std::uint32_t> argmax_, argmin_;

  std::vector<stats::Summary> summaries_;
  std::vector<double> rmsz_dist_;
  std::vector<double> enmax_dist_;
  double rmsz_min_ = 0.0;
  double rmsz_max_ = 0.0;
  double enmax_range_ = 0.0;
};

/// The statistics of an ensemble held in memory, together with its members.
class EnsembleStats : public SufficientStats {
 public:
  /// Takes ownership of all members' fields (same variable, same shape,
  /// same fill layout). Requires at least 3 members.
  explicit EnsembleStats(std::vector<climate::Field> members);

  [[nodiscard]] const climate::Field& member(std::size_t m) const { return members_[m]; }

  /// RMSZ of arbitrary data standing in for member m: each point is
  /// z-scored against the sub-ensemble {E \ m} (eq. 6) and the RMS taken
  /// over points with non-degenerate sub-ensemble spread (eq. 7).
  [[nodiscard]] double rmsz_of(std::size_t m, std::span<const float> data) const;

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
  EnsembleStats(SufficientStats stats, std::vector<climate::Field>&& members)
      : SufficientStats(std::move(stats)), members_(std::move(members)) {}

  std::vector<climate::Field> members_;
};

}  // namespace cesm::core
