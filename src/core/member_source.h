#pragma once
// Where a variable's ensemble members come from, kept apart from how a
// compressed member is assessed (§4.3).
//
// The verification pipeline (core/pvt.h, core/grib_tuning.h, the variable
// body in core/suite.h) needs two things from an ensemble: the sufficient
// statistics the verdict is scored against (per-point sum/sum², the
// validity mask, the RMSZ and E_nmax distributions, member summaries), and
// a way to round-trip member m through a codec. A MemberSource provides
// both. The round trip hands each (original, reconstructed) chunk pair to
// a visitor together with its element offset, in order, and returns the
// compression ratio; a reconstruction (the bias sweep's path) hands over
// the same pairs without producing a stream. The pipeline feeds the pairs
// to the streaming kernels (stats/kernels.h), which reproduce the one-shot
// accumulators bit for bit for any chunk partition.
//
// Two sources exist. ResidentMembers (below) serves members held in an
// EnsembleStats: the whole field is one chunk, encoded through the codec as
// given. SpilledMembers (core/ooc.cpp) serves members staged in a CNK1
// chunk store: each chunk goes through the wrapped ChunkedCodec's inner
// codec and the CR is sized with packed_stream_bytes. With the same chunk
// partition the two yield bit-identical verdicts.

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "compress/prep.h"
#include "core/rmsz.h"
#include "stats/descriptive.h"

namespace cesm::core {

/// Float buffers recycled across concurrent member round trips: a lease
/// takes a free buffer (allocating only when every buffer is in use) and
/// returns it on destruction, so a sweep allocates once per concurrently
/// running round trip rather than once per member.
class BufferPool {
 public:
  explicit BufferPool(std::size_t elems) : elems_(elems) {}

  class Lease {
   public:
    explicit Lease(BufferPool& pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] std::span<float> span() { return buf_; }

   private:
    BufferPool& pool_;
    std::vector<float> buf_;
  };

 private:
  std::size_t elems_;
  std::mutex mu_;
  std::vector<std::vector<float>> free_;  // guarded by mu_
};

class MemberSource {
 public:
  /// Receives (offset, original chunk, reconstructed chunk).
  using ChunkVisitor = std::function<void(std::size_t, std::span<const float>,
                                          std::span<const float>)>;

  virtual ~MemberSource() = default;
  MemberSource(const MemberSource&) = delete;
  MemberSource& operator=(const MemberSource&) = delete;
  MemberSource(MemberSource&&) = delete;
  MemberSource& operator=(MemberSource&&) = delete;

  [[nodiscard]] std::size_t member_count() const { return rmsz_dist_->size(); }
  [[nodiscard]] std::span<const std::uint8_t> mask() const { return mask_; }
  [[nodiscard]] std::span<const double> sum() const { return sum_; }
  [[nodiscard]] std::span<const double> sum_sq() const { return sum_sq_; }
  [[nodiscard]] double rmsz(std::size_t m) const { return (*rmsz_dist_)[m]; }
  [[nodiscard]] const std::vector<double>& rmsz_distribution() const {
    return *rmsz_dist_;
  }
  [[nodiscard]] std::pair<double, double> rmsz_range() const { return rmsz_range_; }
  [[nodiscard]] double enmax_range() const { return enmax_range_; }

  [[nodiscard]] virtual std::string variable() const = 0;
  /// The §4.1 summary of member m over valid points.
  [[nodiscard]] virtual stats::Summary member_summary(std::size_t m) const = 0;

  /// Encode member m through `codec` (plan-driven when `plans` is
  /// non-null), decode it, pass every chunk pair to `visit` in offset
  /// order, and return the compression ratio of the whole member.
  virtual double round_trip(const comp::Codec& codec, std::size_t m,
                            comp::PlanStore* plans, const ChunkVisitor& visit) const = 0;

  /// Compression ratio of member m through `codec`, encode only.
  [[nodiscard]] virtual double encoded_cr(const comp::Codec& codec, std::size_t m,
                                          comp::PlanStore* plans) const = 0;

  /// Reconstruct member m through `codec` without producing a stream
  /// (Codec::reconstruct_into, plan-driven when `plans` is non-null) and
  /// pass every chunk pair to `visit` in offset order. The pairs are
  /// bit-identical to round_trip()'s; there is no CR and no decode.
  virtual void reconstruct(const comp::Codec& codec, std::size_t m,
                           comp::PlanStore* plans, const ChunkVisitor& visit) const = 0;

 protected:
  /// Captures the statistics of an EnsembleStats-shaped object, which
  /// must outlive the source.
  template <class Stats>
  explicit MemberSource(const Stats& stats)
      : mask_(stats.mask()),
        sum_(stats.sum()),
        sum_sq_(stats.sum_sq()),
        rmsz_dist_(&stats.rmsz_distribution()),
        rmsz_range_(stats.rmsz_range()),
        enmax_range_(stats.enmax_range()) {}

 private:
  std::span<const std::uint8_t> mask_;
  std::span<const double> sum_;
  std::span<const double> sum_sq_;
  const std::vector<double>* rmsz_dist_;
  std::pair<double, double> rmsz_range_;
  double enmax_range_;
};

/// Members resident in an EnsembleStats (which must outlive the source).
class ResidentMembers final : public MemberSource {
 public:
  explicit ResidentMembers(const EnsembleStats& stats);

  [[nodiscard]] std::string variable() const override;
  [[nodiscard]] stats::Summary member_summary(std::size_t m) const override;
  double round_trip(const comp::Codec& codec, std::size_t m, comp::PlanStore* plans,
                    const ChunkVisitor& visit) const override;
  [[nodiscard]] double encoded_cr(const comp::Codec& codec, std::size_t m,
                                  comp::PlanStore* plans) const override;
  void reconstruct(const comp::Codec& codec, std::size_t m, comp::PlanStore* plans,
                   const ChunkVisitor& visit) const override;

 private:
  [[nodiscard]] Bytes encode(const comp::Codec& codec, std::size_t m,
                             comp::PlanStore* plans) const;

  const EnsembleStats& stats_;
  mutable BufferPool recon_;
};

}  // namespace cesm::core
