// The reconstruct-only hook's contract (Codec::reconstruct_into): the
// output is bit-identical to decode_into(encode(data, shape)) — through
// encode_with_prep when a plan is given — and the hook throws the same
// error class as that round trip. The bias sweep scores every non-test
// member through this hook instead of a round trip, so any divergence here
// changes a verdict; it is a correctness bug, not a tuning matter.
//
// Covered: every paper variant bare, fill-wrapped, traced and
// ChunkedCodec-wrapped; the direct, fresh-plan and reused-plan paths; the
// hostile-field generators over rank 1/2/3 shapes with and without fill
// masks, NaN/inf samples, an all-fill field, 1-element fields and the
// APAX block / ISABELA window tail lengths; and wrong-size outputs.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compress/apax/apax.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/fpz/fpz.h"
#include "compress/grib2/grib2.h"
#include "compress/isabela/isabela.h"
#include "compress/prep.h"
#include "compress/variants.h"
#include "support/generators.h"
#include "util/error.h"

namespace cesm {
namespace {

constexpr float kFill = 1.0e20f;
constexpr std::uint64_t kSeed = 0x7ec0457full;

enum class Thrown { kNone, kInvalidArgument, kFormatError, kOtherError };

struct Outcome {
  std::vector<float> out;
  Thrown thrown = Thrown::kNone;
};

Outcome capture(std::size_t out_elems, const std::function<void(std::span<float>)>& run) {
  Outcome o;
  o.out.assign(out_elems, -7.0f);
  try {
    run(o.out);
  } catch (const InvalidArgument&) {
    o.thrown = Thrown::kInvalidArgument;
  } catch (const FormatError&) {
    o.thrown = Thrown::kFormatError;
  } catch (const Error&) {
    o.thrown = Thrown::kOtherError;
  }
  return o;
}

/// decode_into(encode(..)) — the reference the hook must reproduce.
Outcome round_trip(const comp::Codec& codec, std::span<const float> data,
                   const comp::Shape& shape, const comp::PrepPlan* plan,
                   std::size_t out_elems) {
  return capture(out_elems, [&](std::span<float> out) {
    const Bytes stream =
        plan != nullptr ? codec.encode_with_prep(*plan, data, shape) : codec.encode(data, shape);
    codec.decode_into(stream, out);
  });
}

Outcome reconstruct(const comp::Codec& codec, std::span<const float> data,
                    const comp::Shape& shape, const comp::PrepPlan* plan,
                    std::size_t out_elems) {
  return capture(out_elems, [&](std::span<float> out) {
    codec.reconstruct_into(data, shape, plan, out);
  });
}

/// Same error class; on success the same bits (NaN payloads included).
void expect_same(const Outcome& want, const Outcome& got, const std::string& path) {
  SCOPED_TRACE(path);
  ASSERT_EQ(static_cast<int>(want.thrown), static_cast<int>(got.thrown));
  if (want.thrown != Thrown::kNone) return;
  ASSERT_EQ(want.out.size(), got.out.size());
  EXPECT_EQ(std::memcmp(want.out.data(), got.out.data(), want.out.size() * sizeof(float)), 0);
}

/// One codec over one field on all three paths. `shared` carries plans
/// across the catalog, so a later sibling variant (fpzip-16 after
/// fpzip-24, ISA-0.5 after ISA-0.1, ...) reconstructs from a plan another
/// variant built.
void expect_parity(const comp::Codec& codec, std::span<const float> data,
                   const comp::Shape& shape, comp::PlanStore& shared) {
  SCOPED_TRACE("codec=" + codec.name());
  const std::size_t n = data.size();
  const Outcome want = round_trip(codec, data, shape, nullptr, n);
  expect_same(want, reconstruct(codec, data, shape, nullptr, n), "direct");

  // Fresh plan: built for this call alone.
  comp::PrepPlanPtr fresh;
  try {
    fresh = codec.build_prep(data, shape);
  } catch (const InvalidArgument&) {
    EXPECT_EQ(static_cast<int>(want.thrown), static_cast<int>(Thrown::kInvalidArgument));
    return;
  }
  if (fresh != nullptr) {
    expect_same(want, round_trip(codec, data, shape, fresh.get(), n), "fresh plan, round trip");
    expect_same(want, reconstruct(codec, data, shape, fresh.get(), n), "fresh plan");
  }

  // Reused plan: the shared store's (possibly a sibling's), twice.
  for (int pass = 0; pass < 2; ++pass) {
    expect_same(want, capture(n, [&](std::span<float> out) {
                  shared.reconstruct_into(codec, data, shape, 0, out);
                }),
                "shared store, pass " + std::to_string(pass));
  }
}

/// The four forms a variant takes in the suite: bare, fill-wrapped (the
/// SpecialValueCodec where the family needs one), traced, and chunked.
std::vector<comp::CodecPtr> forms(const comp::CodecPtr& bare, std::optional<float> fill) {
  const comp::CodecPtr filled = comp::with_fill_handling(bare, fill);
  const comp::CodecPtr traced = comp::traced(filled);
  return {bare, filled, traced, std::make_shared<comp::ChunkedCodec>(traced, 1024)};
}

std::vector<comp::CodecPtr> bare_variants(std::optional<float> fill) {
  return {std::make_shared<comp::Grib2Codec>(3, fill),
          std::make_shared<comp::ApaxCodec>(comp::ApaxCodec::fixed_rate(2)),
          std::make_shared<comp::ApaxCodec>(comp::ApaxCodec::fixed_rate(4)),
          std::make_shared<comp::ApaxCodec>(comp::ApaxCodec::fixed_rate(5)),
          std::make_shared<comp::FpzCodec>(24),
          std::make_shared<comp::FpzCodec>(16),
          std::make_shared<comp::IsabelaCodec>(0.1),
          std::make_shared<comp::IsabelaCodec>(0.5),
          std::make_shared<comp::IsabelaCodec>(1.0)};
}

/// Every variant in every form over one field; one shared store per form
/// so plans flow between sibling variants exactly as in the sweep.
void expect_catalog_parity(std::span<const float> data, const comp::Shape& shape,
                           std::optional<float> fill) {
  const std::vector<comp::CodecPtr> bares = bare_variants(fill);
  for (std::size_t form = 0; form < 4; ++form) {
    SCOPED_TRACE("form=" + std::to_string(form));
    comp::PlanStore shared(256ull << 20);
    for (const comp::CodecPtr& bare : bares) {
      expect_parity(*forms(bare, fill)[form], data, shape, shared);
    }
  }
}

struct NamedField {
  std::string label;
  std::vector<float> data;
};

std::vector<NamedField> hostile_fields(std::size_t n, std::uint64_t seed) {
  std::vector<NamedField> fields;
  fields.push_back({"smooth", testgen::smooth_field(n, seed)});
  fields.push_back({"noisy", testgen::noisy_field(n, hash_combine(seed, 1))});
  fields.push_back({"lognormal", testgen::lognormal_field(n, hash_combine(seed, 2))});
  fields.push_back({"constant", testgen::constant_field(n)});
  fields.push_back({"tiny", testgen::tiny_field(n, hash_combine(seed, 3))});
  fields.push_back({"denormal", testgen::denormal_field(n, hash_combine(seed, 4))});
  std::vector<float> salted = testgen::smooth_field(n, hash_combine(seed, 5));
  testgen::salt_specials(salted, hash_combine(seed, 6));
  fields.push_back({"nan-inf", std::move(salted)});
  return fields;
}

TEST(ReconstructParity, EveryPaperVariantOverHostileFieldsAndShapes) {
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  constexpr std::size_t n = 6144;
  const comp::Shape shapes[] = {comp::Shape::d1(n), comp::Shape::d2(48, 128),
                                comp::Shape::d3(4, 24, 64)};
  for (const std::optional<float> fill :
       {std::optional<float>{}, std::optional<float>{kFill}}) {
    for (const NamedField& field : hostile_fields(n, kSeed)) {
      std::vector<float> data = field.data;
      if (fill.has_value()) {
        testgen::apply_fill(data, testgen::fill_mask(n, hash_combine(kSeed, 9)), *fill);
      }
      for (const comp::Shape& shape : shapes) {
        SCOPED_TRACE(field.label + " rank=" + std::to_string(shape.rank()) +
                     (fill ? " fill" : ""));
        expect_catalog_parity(data, shape, fill);
      }
    }
  }
}

TEST(ReconstructParity, AllFillAndSingleElementFields) {
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  {
    SCOPED_TRACE("all fill");
    const std::vector<float> all_fill(3000, kFill);
    expect_catalog_parity(all_fill, comp::Shape::d2(3, 1000), kFill);
  }
  for (const std::optional<float> fill :
       {std::optional<float>{}, std::optional<float>{kFill}}) {
    for (const float v : {0.0f, -3.25f, kFill}) {
      SCOPED_TRACE("one element " + std::to_string(v) + (fill ? " fill" : ""));
      const std::vector<float> one = {v};
      expect_catalog_parity(one, comp::Shape::d1(1), fill);
    }
  }
}

TEST(ReconstructParity, BlockAndWindowTailLengths) {
  // APAX blocks are 64 samples and ISABELA windows 1024: lengths one short
  // of, one past, and straddling each boundary leave a partial tail.
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  for (const std::size_t n : {2u, 63u, 65u, 127u, 1023u, 1025u, 1024u + 64u + 1u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<float> data = testgen::smooth_field(n, hash_combine(kSeed, n));
    expect_catalog_parity(data, comp::Shape::d1(n), std::nullopt);
    testgen::apply_fill(data, testgen::fill_mask(n, hash_combine(kSeed, n + 1)), kFill);
    expect_catalog_parity(data, comp::Shape::d1(n), kFill);
  }
}

TEST(ReconstructParity, WrongSizeOutputRaisesFormatError) {
  SCOPED_TRACE(testgen::seed_banner(kSeed));
  constexpr std::size_t n = 2048;
  const std::vector<float> data = testgen::smooth_field(n, kSeed);
  const comp::Shape shape = comp::Shape::d2(16, 128);
  for (const comp::CodecPtr& bare : bare_variants(kFill)) {
    for (const comp::CodecPtr& codec : forms(bare, kFill)) {
      SCOPED_TRACE("codec=" + codec->name());
      for (const std::size_t out_elems : {n - 1, n + 1, std::size_t{0}}) {
        const Outcome got = reconstruct(*codec, data, shape, nullptr, out_elems);
        EXPECT_EQ(static_cast<int>(got.thrown), static_cast<int>(Thrown::kFormatError));
        expect_same(round_trip(*codec, data, shape, nullptr, out_elems), got, "wrong size");
      }
    }
  }
}

TEST(ReconstructParity, DefaultHookIsTheRoundTrip) {
  // A codec without an override (here the lossless NetCDF-4 stand-in)
  // reconstructs through the base implementation: decode of its encode.
  const std::vector<float> data = testgen::noisy_field(4096, kSeed);
  const comp::CodecPtr deflate = comp::make_variant("NetCDF-4");
  std::vector<float> out(data.size());
  deflate->reconstruct_into(data, comp::Shape::d1(4096), nullptr, out);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace cesm
