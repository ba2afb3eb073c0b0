#pragma once
// Where a variable's ensemble members come from, kept apart from how a
// compressed member is assessed (§4.3).
//
// The verification pipeline (core/pvt.h, core/grib_tuning.h, the variable
// body in core/suite.h) needs two things from an ensemble: the
// SufficientStats the verdict is scored against (core/rmsz.h: per-point
// sum/sum², the validity mask, the RMSZ and E_nmax distributions, member
// summaries), and a way to round-trip member m through a codec. A
// MemberSource provides both. The round trip hands each (original,
// reconstructed) chunk pair to a visitor together with its element offset,
// in order, and returns the compression ratio; a reconstruction (the bias
// sweep's path) hands over the same pairs without producing a stream. The
// pipeline feeds the pairs to the streaming kernels (stats/kernels.h),
// which reproduce the one-shot accumulators bit for bit for any chunk
// partition.
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

  /// The statistics every verdict on these members is scored against.
  [[nodiscard]] const SufficientStats& stats() const { return stats_; }

  [[nodiscard]] virtual std::string variable() const = 0;

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
  /// Scores against `stats`, which must outlive the source.
  explicit MemberSource(const SufficientStats& stats) : stats_(stats) {}

 private:
  const SufficientStats& stats_;
};

/// Members resident in an EnsembleStats (which must outlive the source).
class ResidentMembers final : public MemberSource {
 public:
  explicit ResidentMembers(const EnsembleStats& stats);

  [[nodiscard]] std::string variable() const override;
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
