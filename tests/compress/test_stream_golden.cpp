// Stream golden digests: every paper variant (which includes fpzip-16),
// plus the lossless fpzip-32 baseline the suite also encodes, must emit
// the same stream bytes and decode to the same float bits as the commit
// that recorded the table below. Any kernel or codec change that is meant
// to be a pure restructuring has to keep this test passing unedited; a
// digest change here is a format change and needs a deliberate re-record.
//
// Inputs are fixed testgen fields — smooth, subnormal and fill-masked —
// at lengths 1021 (prime: every lane tail, degenerate rows) and 4096, each
// encoded at rank 1, 2 and 3. Digests are FNV-1a-64 folded over the cases
// of one (variant, field) row in a fixed order: rank 1/2/3 for n = 1021,
// then rank 1/2/3 for n = 4096.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/variants.h"
#include "support/generators.h"
#include "util/cache.h"

namespace cesm::comp {
namespace {

constexpr float kFill = 9.96921e36f;
constexpr int kGribScale = 3;

enum class Field { kSmooth, kDenormal, kFilled };

const char* field_name(Field f) {
  switch (f) {
    case Field::kSmooth: return "Smooth";
    case Field::kDenormal: return "Denormal";
    case Field::kFilled: return "Filled";
  }
  return "?";
}

std::vector<float> make_field(Field f, std::size_t n) {
  switch (f) {
    case Field::kSmooth:
      return testgen::smooth_field(n, 0x601d);
    case Field::kDenormal:
      return testgen::denormal_field(n, 0x601e);
    case Field::kFilled: {
      std::vector<float> data = testgen::smooth_field(n, 0x601f);
      testgen::apply_fill(data, testgen::fill_mask(n, 0x6020), kFill);
      return data;
    }
  }
  return {};
}

std::vector<Shape> shapes_for(std::size_t n) {
  if (n == 4096) return {Shape::d1(n), Shape::d2(32, 128), Shape::d3(4, 16, 64)};
  return {Shape::d1(n), Shape::d2(1, n), Shape::d3(1, 1, n)};
}

std::vector<CodecPtr> golden_codecs(std::optional<float> fill) {
  std::vector<CodecPtr> codecs = paper_variants(kGribScale, fill);
  codecs.push_back(with_fill_handling(make_variant("fpzip-32"), fill));
  return codecs;
}

struct Digests {
  std::uint64_t stream = 0xcbf29ce484222325ull;
  std::uint64_t decode = 0xcbf29ce484222325ull;
};

Digests digest_row(const Codec& codec, Field f) {
  Digests d;
  for (const std::size_t n : {std::size_t{1021}, std::size_t{4096}}) {
    const std::vector<float> data = make_field(f, n);
    for (const Shape& shape : shapes_for(n)) {
      const Bytes stream = codec.encode(data, shape);
      const std::vector<float> out = codec.decode(stream);
      d.stream = util::fnv1a64(stream, d.stream);
      d.decode = util::fnv1a64(
          std::span(reinterpret_cast<const std::uint8_t*>(out.data()),
                    out.size() * sizeof(float)),
          d.decode);
    }
  }
  return d;
}

struct Golden {
  const char* codec;
  Field field;
  std::uint64_t stream;
  std::uint64_t decode;
};

// Recorded once; see the header comment before touching a value.
constexpr Golden kGolden[] = {
    {"GRIB2", Field::kSmooth, 0xd7b64ed98a0991eeull, 0x7cbb540768571fe1ull},
    {"APAX-2", Field::kSmooth, 0x52636effa422d6d8ull, 0x1a8c13c7adc4b48eull},
    {"APAX-4", Field::kSmooth, 0x43cef275082f40ccull, 0xee57e21f2c175711ull},
    {"APAX-5", Field::kSmooth, 0x1cce2cfe4d774f31ull, 0xf1221cca3c566f5eull},
    {"fpzip-24", Field::kSmooth, 0x0f1e1baba9f905beull, 0x7b6a1af95b5dcf26ull},
    {"fpzip-16", Field::kSmooth, 0x7e4f44de80348a58ull, 0x0952040a93fe8f6dull},
    {"ISA-0.1", Field::kSmooth, 0x9d31476b62bd5e20ull, 0xe2acde127c35c23bull},
    {"ISA-0.5", Field::kSmooth, 0xfcfc11c62e18d7a2ull, 0xfc28f7db8b167094ull},
    {"ISA-1.0", Field::kSmooth, 0x9b9ecf3e98482c74ull, 0x746856370e4bec48ull},
    {"fpzip-32", Field::kSmooth, 0x2e2eb738ea34342bull, 0x39ebe6eab5e1d409ull},
    {"GRIB2", Field::kDenormal, 0x0849b2c79d67e6e3ull, 0x3aa2445f7b9ecd30ull},
    {"APAX-2", Field::kDenormal, 0x0dbbd8905e8e8c19ull, 0x2c8143436ccc469bull},
    {"APAX-4", Field::kDenormal, 0x074d64f712000361ull, 0x6d4f3e488a5df69eull},
    {"APAX-5", Field::kDenormal, 0xb2015ed49847ae36ull, 0xe2357d8aeabf9acaull},
    {"fpzip-24", Field::kDenormal, 0xd828ff5d265c3adfull, 0xb7d55142ab923303ull},
    {"fpzip-16", Field::kDenormal, 0xc2e6c3f85371fd9eull, 0xb7197d86be96b441ull},
    {"ISA-0.1", Field::kDenormal, 0x651091bdafe3493full, 0xf85172e21bcce00full},
    {"ISA-0.5", Field::kDenormal, 0x59b75e17350accbcull, 0x68d1c03498a86aebull},
    {"ISA-1.0", Field::kDenormal, 0x6bc19971e8998b8full, 0x617bd0f5c8f7c430ull},
    {"fpzip-32", Field::kDenormal, 0x2d964a794c06baeeull, 0x0ab6699969c4bdf1ull},
    {"GRIB2", Field::kFilled, 0xfcc571d599421d30ull, 0xee5bc45348c62f32ull},
    {"APAX-2", Field::kFilled, 0xdcacaa59d944c88aull, 0xfa64fa362c8f0d72ull},
    {"APAX-4", Field::kFilled, 0xb460839104abd9b8ull, 0xb716179e5cb32b7eull},
    {"APAX-5", Field::kFilled, 0x41d9451b91561eaaull, 0x0b6dde3e6239e9f7ull},
    {"fpzip-24", Field::kFilled, 0xba96f4e34aa17d5dull, 0x602a0d456ffb2068ull},
    {"fpzip-16", Field::kFilled, 0xa19ac77df7ba253dull, 0x9aa5e0cc6779a1deull},
    {"ISA-0.1", Field::kFilled, 0x22219e15e84f123eull, 0x06a891bc1251a5f1ull},
    {"ISA-0.5", Field::kFilled, 0x04e483340aa91525ull, 0x49a3c92c99fc2a4dull},
    {"ISA-1.0", Field::kFilled, 0x6ce8c302fe07d280ull, 0x9d0c8801da0530efull},
    {"fpzip-32", Field::kFilled, 0x4dae64c821d5bdcfull, 0xe7bd2b11d3f8dce8ull},
};

TEST(StreamGolden, EveryVariantStreamAndDecodeMatchTheRecordedDigests) {
  std::size_t checked = 0;
  std::string table;
  for (const Field f : {Field::kSmooth, Field::kDenormal, Field::kFilled}) {
    const std::optional<float> fill =
        f == Field::kFilled ? std::optional<float>(kFill) : std::nullopt;
    for (const CodecPtr& codec : golden_codecs(fill)) {
      const Digests got = digest_row(*codec, f);
      char line[160];
      std::snprintf(line, sizeof line, "    {\"%s\", Field::k%s, 0x%016" PRIx64
                    "ull, 0x%016" PRIx64 "ull},\n",
                    codec->name().c_str(), field_name(f), got.stream, got.decode);
      table += line;
      const Golden* want = nullptr;
      for (const Golden& g : kGolden) {
        if (codec->name() == g.codec && g.field == f) want = &g;
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row for " << codec->name() << " " << field_name(f);
        continue;
      }
      EXPECT_EQ(want->stream, got.stream)
          << codec->name() << " " << field_name(f) << " stream digest";
      EXPECT_EQ(want->decode, got.decode)
          << codec->name() << " " << field_name(f) << " decode digest";
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
  if (HasFailure()) std::printf("computed digests:\n%s", table.c_str());
}

}  // namespace
}  // namespace cesm::comp
