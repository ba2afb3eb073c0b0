#pragma once
// Parallel chunked compression.
//
// The paper's workflow compresses terabytes of history data in a post-
// processing step; single-stream codecs leave cores idle. ChunkedCodec
// splits a field into independent chunks along its slowest dimension,
// encodes them in parallel on the global scheduler, and concatenates the
// self-describing chunk streams behind a header that records each chunk's
// byte size AND element count. Decoding reads that tiling, presizes one
// output buffer, and decodes every chunk in parallel directly into its
// slice — no per-chunk temporaries, no concatenation pass.
//
// Chunking is semantically visible only at chunk boundaries (predictors
// and windows reset), costing a small amount of ratio in exchange for
// near-linear speedup — the classic HPC trade, measurable with
// bench/ablation_design.

#include "compress/codec.h"

namespace cesm::comp {

class ChunkedCodec final : public Codec {
 public:
  /// Wrap `inner`; each chunk carries about `target_chunk_elems` values
  /// (chunks are whole slices of the slowest dimension when rank > 1).
  ChunkedCodec(CodecPtr inner, std::size_t target_chunk_elems = 1 << 16);

  [[nodiscard]] std::string name() const override { return inner_->name() + "+chunked"; }
  [[nodiscard]] std::string family() const override { return inner_->family(); }
  [[nodiscard]] bool is_lossless() const override { return inner_->is_lossless(); }
  [[nodiscard]] Capabilities capabilities() const override {
    return inner_->capabilities();
  }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<float> decode(std::span<const std::uint8_t> stream) const override;
  void decode_into(std::span<const std::uint8_t> stream,
                   std::span<float> out) const override;
  /// Reconstructs every chunk through the inner codec in parallel, each
  /// straight into its slice of `out` (the wrapper has no plan of its own).
  void reconstruct_into(std::span<const float> data, const Shape& shape,
                        const PrepPlan* plan, std::span<float> out) const override;

  /// The chunk boundaries used for a given shape (element offsets).
  [[nodiscard]] std::vector<std::size_t> chunk_offsets(const Shape& shape) const;

  // Chunk-granular API for the out-of-core pipeline: callers that cannot
  // hold a full field encode chunk [lo, hi) with the wrapped codec under
  // chunk_shape(), track per-chunk stream sizes, and recover the exact
  // packed size the one-shot encode() would have produced — so a streaming
  // run reports bit-identical compression ratios without ever
  // concatenating the stream.

  /// The wrapped codec (for per-chunk encode/decode in streaming mode).
  [[nodiscard]] const CodecPtr& inner() const { return inner_; }

  /// Shape of the chunk covering element range [lo, hi) of `shape` — the
  /// same shape encode() hands the inner codec for that chunk. The range
  /// must be a whole number of slowest-dimension slices when rank > 1.
  [[nodiscard]] static Shape chunk_shape(const Shape& shape, std::size_t lo, std::size_t hi);

  /// Exact byte size of the packed stream encode() would emit for `shape`
  /// given each chunk's encoded size (in chunk_offsets order).
  [[nodiscard]] std::size_t packed_stream_bytes(
      const Shape& shape, std::span<const std::size_t> chunk_sizes) const;

 private:
  /// Parse + validate the stream and decode every chunk into its slice of
  /// `out` (whose size must equal the stream's element count).
  void decode_chunks(std::span<const std::uint8_t> stream, std::span<float> out) const;

  CodecPtr inner_;
  std::size_t target_chunk_elems_;
};

}  // namespace cesm::comp
