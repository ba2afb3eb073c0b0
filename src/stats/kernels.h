#pragma once
// Fused, SIMD-friendly statistic kernels for the §4 hot paths.
//
// The methodology is dominated by repeated moment computations: per-variable
// min/max/mean/std (§4.1), Pearson co-moments against the 0.99999 bar
// (§4.2), pointwise error norms (eqs. 2–4) and RMSZ z-score accumulation
// (eqs. 6–8), each swept over variants x variables x members. The seed
// implementations were scalar two-pass loops with a per-element mask
// branch; at ensemble scale they are the framework's own bottleneck (the
// same effect Z-checker reports for assessment kernels).
//
// Every kernel here follows the same shape:
//
//   * single streaming pass over memory, processed in L1-resident blocks
//     (kBlock elements); moments that need a centered second pass do it
//     inside the block, so the data is read from DRAM once;
//   * block results merged with Chan's parallel update (means/M2/co-moments)
//     or Neumaier-compensated addition (plain sums), so accuracy matches or
//     beats the legacy global two-pass code on large-offset fields;
//   * the validity mask is hoisted to a per-block fast path: a block whose
//     mask slice is all-ones (the common no-fill / interior-ocean case)
//     branches once and runs the vectorizable unmasked inner loop;
//   * inner loops use independent accumulator lanes so the compiler can
//     keep them in SIMD registers without reassociating a serial reduction
//     (results stay deterministic: no -ffast-math anywhere).
//
// The `reference` namespace preserves the seed's scalar two-pass
// implementations verbatim. They are the ground truth for the ULP parity
// tests (tests/stats/test_kernels.cpp) and the "legacy" side of the
// bench_kernels microbenchmark; production code must not call them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cesm::stats::kernels {

/// Elements per processing block: 4096 floats = 16 KiB, comfortably
/// L1-resident together with a mask slice and an output tile.
inline constexpr std::size_t kBlock = 4096;

/// True when every byte of `mask` is non-zero. Empty masks are all-valid
/// by convention. Vectorizes to wide compares; used per block to pick the
/// unmasked fast path.
bool all_valid(std::span<const std::uint8_t> mask);

/// Number of non-zero mask bytes (empty mask counts as `fallback_count`).
std::size_t count_valid(std::span<const std::uint8_t> mask,
                        std::size_t fallback_count = 0);

/// Fused (min, max, mean, M2, count) accumulator. M2 is the sum of squared
/// deviations from the mean, so variance = m2 / count.
struct MomentAccum {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t count = 0;

  /// Chan's parallel combine of two partial moment sets.
  void merge(const MomentAccum& other);
};

MomentAccum moments(std::span<const float> data,
                    std::span<const std::uint8_t> mask = {});
MomentAccum moments(std::span<const double> data,
                    std::span<const std::uint8_t> mask = {});

/// Fused co-moment accumulator for Pearson/covariance: means plus centered
/// sums sxx = Σ(x-mx)², syy, sxy over valid pairs.
struct CoMomentAccum {
  double mean_x = 0.0;
  double mean_y = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  double sxy = 0.0;
  std::size_t count = 0;

  void merge(const CoMomentAccum& other);
};

CoMomentAccum comoments(std::span<const float> x, std::span<const float> y,
                        std::span<const std::uint8_t> mask = {});
CoMomentAccum comoments(std::span<const double> x, std::span<const double> y,
                        std::span<const std::uint8_t> mask = {});

/// Pointwise error norms between an original and a reconstruction:
/// compensated Σe², max |e|, valid-point count (eqs. 2–3 numerators).
struct ErrorAccum {
  double sum_sq = 0.0;
  double max_abs = 0.0;
  std::size_t count = 0;
};

ErrorAccum error_norms(std::span<const float> original,
                       std::span<const float> reconstructed,
                       std::span<const std::uint8_t> mask = {});

/// Leave-one-out z-score sums for RMSZ (eqs. 6–7). For each valid point the
/// sub-ensemble {E \ m} mean/variance are recovered from the per-point
/// sufficient statistics `sum`/`sum_sq` by removing `orig[i]`; points whose
/// spread is degenerate (sd <= floor_rel * |mu|) are skipped. `data` is the
/// candidate standing in for member m (the original or a reconstruction).
struct ZScoreAccum {
  double sum_z2 = 0.0;
  std::size_t used = 0;
};

ZScoreAccum zscore_sums(std::span<const float> data, std::span<const float> orig,
                        std::span<const double> sum, std::span<const double> sum_sq,
                        std::span<const std::uint8_t> mask, double member_count,
                        double floor_rel);

/// Ensemble sufficient-statistics pass: sum[i] += x[i], sum_sq[i] += x[i]²
/// over valid points, with the mask branch hoisted per block.
void accumulate_sum_sq(std::span<const float> x, std::span<const std::uint8_t> mask,
                       std::span<double> sum, std::span<double> sum_sq);

/// Per-point extreme tracking with runners-up (the E_nmax leave-one-out
/// machinery): member m's values update max1/max2/argmax and min1/min2/
/// argmin in place. Mask hoisted per block; the runner-up update itself is
/// inherently branchy and stays scalar.
void update_extremes(std::span<const float> x, std::span<const std::uint8_t> mask,
                     std::uint32_t m, std::span<float> max1, std::span<float> max2,
                     std::span<std::uint32_t> argmax, std::span<float> min1,
                     std::span<float> min2, std::span<std::uint32_t> argmin);

// ---------------------------------------------------------------------------
// Resumable streaming front ends for the kernels above.
//
// The out-of-core pipeline feeds each kernel one chunk at a time, and the
// chunk partition is whatever the I/O layer chose — it rarely lands on
// kBlock boundaries. A naive "run the one-shot kernel per chunk and merge"
// would change the block decomposition and therefore the floating-point
// result. Each stream below instead re-aligns arbitrary feeds to the same
// absolute kBlock grid the one-shot kernel uses: inputs are staged into an
// owned kBlock buffer and processed by the *identical* per-block routine
// the one-shot kernel calls, so for any partition of the input —
// 1-element tails included — the finished accumulator is bit-for-bit the
// one-shot result.
//
// Contract shared by all four streams: feeds must cover the logical array
// in order from element 0 with no gaps or overlaps; a stream constructed
// masked receives a mask slice with every feed (an empty mask slice means
// "all valid" and stages ones — by the all_valid fast path that is
// arithmetically identical to an absent mask); finish() flushes the tail
// block and returns the accumulator. Streams are single-use.

/// Streaming `moments` (min/max/mean/M2/count).
class MomentStream {
 public:
  explicit MomentStream(bool masked = false);
  void feed(std::span<const float> data, std::span<const std::uint8_t> mask = {});
  [[nodiscard]] MomentAccum finish();

 private:
  void flush_block();

  MomentAccum acc_;
  std::vector<float> stage_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Streaming `comoments` (Pearson sufficient statistics).
class CoMomentStream {
 public:
  explicit CoMomentStream(bool masked = false);
  void feed(std::span<const float> x, std::span<const float> y,
            std::span<const std::uint8_t> mask = {});
  [[nodiscard]] CoMomentAccum finish();

 private:
  void flush_block();

  CoMomentAccum acc_;
  std::vector<float> stage_x_;
  std::vector<float> stage_y_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Streaming `error_norms` (compensated Σe², max |e|, count).
class ErrorNormStream {
 public:
  explicit ErrorNormStream(bool masked = false);
  void feed(std::span<const float> original, std::span<const float> reconstructed,
            std::span<const std::uint8_t> mask = {});
  [[nodiscard]] ErrorAccum finish();

 private:
  struct Comp {  // mirrors the kernel's Neumaier carry (sum, comp)
    double sum = 0.0;
    double comp = 0.0;
  };
  void flush_block();

  ErrorAccum acc_;
  Comp total_;
  std::vector<float> stage_x_;
  std::vector<float> stage_y_;
  std::vector<std::uint8_t> stage_mask_;
  std::size_t staged_ = 0;
  bool masked_ = false;
};

/// Leave-one-out z-scoring of many candidates for one member (eqs. 6–7).
///
/// The sub-ensemble {E \ m} mean μ and variance σ² of a point depend only
/// on the per-point sum/sum² and on the original member m, never on the
/// candidate standing in for it. A sweep that scores several
/// reconstructions of member m therefore derives them once per chunk
/// (prepare) and feeds every candidate against them (LooZScoreStream). The
/// per-point arithmetic and the absolute kBlock grid with its four
/// accumulator lanes are zscore_sums', so each finished accumulator is
/// bit-identical to zscore_sums over the whole field for any chunk
/// partition.
class LeaveOneOut {
 public:
  /// A field of `n` points with validity `mask` (empty: all valid) in an
  /// ensemble of `member_count` members.
  LeaveOneOut(std::size_t n, std::span<const std::uint8_t> mask, double member_count,
              double floor_rel);

  /// μ and σ² of the chunk at offset `lo` of the original member `orig`,
  /// from the chunk's per-point sum/sum². `var` is -1 where the point does
  /// not count (masked, or degenerate spread).
  void prepare(std::size_t lo, std::span<const float> orig, std::span<const double> sum,
               std::span<const double> sum_sq, std::span<double> mu,
               std::span<double> var) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  /// True when kBlock block b takes zscore_sums' unmasked four-lane path.
  [[nodiscard]] bool block_valid(std::size_t b) const { return block_valid_[b] != 0; }

 private:
  std::size_t n_;
  std::span<const std::uint8_t> mask_;
  double inv_;
  double floor_rel_;
  std::vector<std::uint8_t> block_valid_;
};

/// Streaming z-score accumulation of one candidate against prepared
/// leave-one-out statistics. Holds no heap state: reset() starts the next
/// candidate, so one stream per variant serves a lane's every member.
class LooZScoreStream {
 public:
  void reset();
  /// The candidate's values on the chunk at `lo`, with that chunk's
  /// prepared μ/σ². Chunks arrive in order from offset 0.
  void feed(const LeaveOneOut& loo, std::size_t lo, std::span<const float> data,
            std::span<const double> mu, std::span<const double> var);
  [[nodiscard]] ZScoreAccum finish();

 private:
  void fold_lanes();

  ZScoreAccum acc_;
  double z2_[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t used_[4] = {0, 0, 0, 0};
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Legacy scalar two-pass implementations (the seed's exact algorithms).
// Parity-test ground truth and bench_kernels' "legacy" side only.
namespace reference {

struct TwoPassSummary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double m2 = 0.0;  ///< Σ(x - mean)² from the second pass
  std::size_t count = 0;
};

TwoPassSummary summarize_two_pass(std::span<const float> data,
                                  std::span<const std::uint8_t> mask = {});

CoMomentAccum comoments_two_pass(std::span<const float> x, std::span<const float> y,
                                 std::span<const std::uint8_t> mask = {});

ErrorAccum error_norms_scalar(std::span<const float> original,
                              std::span<const float> reconstructed,
                              std::span<const std::uint8_t> mask = {});

ZScoreAccum zscore_sums_scalar(std::span<const float> data, std::span<const float> orig,
                               std::span<const double> sum,
                               std::span<const double> sum_sq,
                               std::span<const std::uint8_t> mask, double member_count,
                               double floor_rel);

}  // namespace reference

}  // namespace cesm::stats::kernels
