#pragma once
// Where a variable's ensemble members come from, kept apart from how a
// compressed member is assessed (§4.3).
//
// The verification pipeline (core/pvt.h, core/grib_tuning.h, the variable
// body in core/suite.h) needs two things from an ensemble: the
// SufficientStats the verdict is scored against (core/rmsz.h: per-point
// sum/sum², the validity mask, the RMSZ and E_nmax distributions, member
// summaries), and member m's values, chunk by chunk, each with the codec
// that applies to it. A MemberSource provides both: walk() hands every
// chunk of member m over once, in offset order, and the pipeline encodes,
// decodes or reconstructs it under as many codecs as it likes before the
// walk moves on. The chunk pairs feed the streaming kernels
// (stats/kernels.h), which reproduce the one-shot accumulators bit for bit
// for any chunk partition.
//
// Two sources exist. ResidentMembers (below) serves members held in an
// EnsembleStats: the whole field is one chunk, encoded through the codec as
// given. SpilledMembers (core/ooc.cpp) serves members staged in a CNK1
// chunk store: each chunk is read and checksummed once per walk and goes
// through the wrapped ChunkedCodec's inner codec, and the CR is sized with
// packed_stream_bytes. With the same chunk partition the two yield
// bit-identical verdicts.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.h"
#include "compress/prep.h"
#include "core/rmsz.h"
#include "stats/descriptive.h"
#include "util/memory.h"

namespace cesm::core {

class MemberSource {
 public:
  /// One chunk of a member walk.
  struct Chunk {
    std::size_t index = 0;   ///< chunk number within the member
    std::size_t offset = 0;  ///< element offset within the field
    std::span<const float> values;
    comp::Shape shape;       ///< what the chunk codec is applied under
  };
  using ChunkFn = std::function<void(const Chunk&)>;

  virtual ~MemberSource() = default;
  MemberSource(const MemberSource&) = delete;
  MemberSource& operator=(const MemberSource&) = delete;
  MemberSource(MemberSource&&) = delete;
  MemberSource& operator=(MemberSource&&) = delete;

  /// The statistics every verdict on these members is scored against.
  [[nodiscard]] const SufficientStats& stats() const { return stats_; }

  [[nodiscard]] virtual std::string variable() const = 0;

  /// Chunks per member and the largest one: every walk has this partition.
  [[nodiscard]] virtual std::size_t chunk_count() const = 0;
  [[nodiscard]] virtual std::size_t max_chunk_elems() const = 0;

  /// The codec applied to each chunk when member m goes through `codec`:
  /// `codec` itself for resident members, the wrapped ChunkedCodec's inner
  /// codec for spilled ones.
  [[nodiscard]] virtual const comp::Codec& chunk_codec(const comp::Codec& codec) const = 0;

  /// Call `fn` for every chunk of member m in offset order; each chunk is
  /// read once and stays valid for the duration of its call.
  virtual void walk(std::size_t m, const ChunkFn& fn) const = 0;

  /// Compression ratio of a whole member under `codec`, given the stream
  /// size of each of its chunks in walk order.
  [[nodiscard]] virtual double member_cr(const comp::Codec& codec,
                                         std::span<const std::size_t> sizes) const = 0;

  /// The budget lane-local encode-prep plans are charged to (null: none).
  [[nodiscard]] virtual util::MemoryBudget* plan_budget() const { return nullptr; }

  /// Compression ratio of member m through `codec`, encode only (plan
  /// driven through `plans` when non-null, keyed per (member, chunk)).
  [[nodiscard]] double encoded_cr(const comp::Codec& codec, std::size_t m,
                                  comp::PlanStore* plans) const;

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
  [[nodiscard]] std::size_t chunk_count() const override { return 1; }
  [[nodiscard]] std::size_t max_chunk_elems() const override;
  [[nodiscard]] const comp::Codec& chunk_codec(const comp::Codec& codec) const override {
    return codec;
  }
  void walk(std::size_t m, const ChunkFn& fn) const override;
  [[nodiscard]] double member_cr(const comp::Codec& codec,
                                 std::span<const std::size_t> sizes) const override;

 private:
  const EnsembleStats& stats_;
};

}  // namespace cesm::core
