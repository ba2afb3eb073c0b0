#pragma once
// APAX-class codec (Samplify's "APplications AXceleration" compressor,
// Wegener US 7,009,533: adaptive compression of bandlimited signals).
//
// APAX is commercial and closed; this reimplementation reproduces its
// published architecture and the two properties the paper leans on:
//   * block floating-point encoding: samples are grouped into blocks, an
//     adaptive pre-filter (identity or first derivative) is chosen per
//     block, samples are attenuated to a shared block exponent and packed
//     with a fixed number of mantissa bits — bounding the *absolute*
//     error per block (contrast fpzip's relative bound, §2.2);
//   * a *fixed-rate* mode (APAX-2/-4/-5 in the tables; we add -6/-7, which
//     the authors mention as untried) and a *fixed-quality* mode — the
//     only method in the study offering both;
//   * very high speed: encode is two passes of simple arithmetic per
//     block, no sorting, no entropy coder.

#include "compress/codec.h"

namespace cesm::comp {

class ApaxCodec final : public Codec {
 public:
  /// Fixed-rate variant: the encoded size is count * 32 / `ratio` bits
  /// (plus a tiny container header), i.e. CR = 1/ratio. Paper uses 2,4,5.
  static ApaxCodec fixed_rate(double ratio);

  /// Fixed-quality variant: every block keeps `mantissa_bits` significant
  /// bits; the rate falls where the data allow. (APAX's fixed-quality
  /// knob, unavailable in the other methods per Table 1.)
  static ApaxCodec fixed_quality(unsigned mantissa_bits);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string family() const override { return "APAX"; }
  [[nodiscard]] bool is_lossless() const override { return false; }

  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.lossless_mode = true,  // 32-bit only, per Table 1 footnote
                        .special_values = false,
                        .freely_available = false,  // commercial product
                        .fixed_quality = true,
                        .fixed_rate = true,
                        .handles_64bit = true};
  }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<float> decode(std::span<const std::uint8_t> stream) const override;

  /// Reconstruct-only: the same block plan and attenuation as encode(),
  /// then decode()'s dequantization and derivative accumulation — no bit
  /// packing. Fixed-rate mantissa widths depend only on the block budget,
  /// never on the coded size, so they are recomputed exactly.
  void reconstruct_into(std::span<const float> data, const Shape& shape,
                        const PrepPlan* plan, std::span<float> out) const override;

  [[nodiscard]] bool is_fixed_rate() const { return fixed_rate_; }
  [[nodiscard]] double target_ratio() const { return ratio_; }
  [[nodiscard]] unsigned quality_bits() const { return quality_bits_; }

 private:
  ApaxCodec(bool fixed_rate, double ratio, unsigned quality_bits);

  bool fixed_rate_;
  double ratio_;           // fixed-rate: compression factor (2 => CR 0.5)
  unsigned quality_bits_;  // fixed-quality: mantissa bits per sample
  // Small blocks track the local signal magnitude closely (the patent
  // uses 32-64 sample groups), which is what keeps fixed-rate error low.
  std::size_t block_ = 64;
};

}  // namespace cesm::comp
