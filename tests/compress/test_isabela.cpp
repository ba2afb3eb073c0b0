#include "compress/isabela/isabela.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compress/isabela/bspline.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

std::vector<float> noisy_field(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.003) * 40.0 + rng.uniform(-10.0, 10.0) + 60.0);
  }
  return data;
}

TEST(BSpline, FitsLineExactly) {
  std::vector<float> values(100);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 2.0f * static_cast<float>(i) + 5.0f;
  const CubicBSpline spline = CubicBSpline::fit(values, 8);
  // Cubic B-splines reproduce linears exactly up to the stabilizing ridge
  // term, which perturbs at the ~1e-6 relative level.
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(spline.evaluate(i), values[i], 1e-4 * (1.0 + std::fabs(values[i])));
  }
}

TEST(BSpline, FitsSortedMonotoneCurveClosely) {
  Pcg32 rng(19);
  std::vector<float> values(1024);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-100.0, 100.0));
  std::sort(values.begin(), values.end());
  const CubicBSpline spline = CubicBSpline::fit(values, 32);
  double worst = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    worst = std::max(worst, std::fabs(spline.evaluate(i) - values[i]));
  }
  // Sorted uniform noise is nearly linear; a 32-coefficient spline should
  // stay within a couple of percent of the 200-unit range.
  EXPECT_LT(worst, 5.0);
}

TEST(BSpline, CoefficientsRoundTripThroughConstructor) {
  std::vector<float> values(50);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<float>(i * i);
  const CubicBSpline fitted = CubicBSpline::fit(values, 10);
  const CubicBSpline rebuilt(fitted.coefficients(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(fitted.evaluate(i), rebuilt.evaluate(i));
  }
}

TEST(SolveBandedSpd, SolvesKnownSystem) {
  // Tridiagonal SPD system: A = diag(2) with -1 off-diagonals (bandwidth 1
  // stored in a bandwidth-3 layout like the spline fit uses).
  const std::size_t n = 5;
  std::vector<std::vector<double>> band(n, std::vector<double>(4, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    band[i][0] = 2.0;
    if (i + 1 < n) band[i][1] = -1.0;
  }
  std::vector<double> b = {1.0, 0.0, 0.0, 0.0, 1.0};
  solve_banded_spd(band, b, 3);
  // Solution of this classic system is symmetric with x0 = x4 = 1, x2 = 1.
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[2], 1.0, 1e-12);
  EXPECT_NEAR(b[4], 1.0, 1e-12);
}

class IsabelaErrorBound : public ::testing::TestWithParam<double> {};

TEST_P(IsabelaErrorBound, RelativeErrorRespectsRequest) {
  const double eps_percent = GetParam();
  const IsabelaCodec codec(eps_percent);
  const auto data = noisy_field(5000, 20);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  // Guarantee analysis: reconstruction error <= eps/2 * max(|estimate|,
  // floor); with |estimate| within a factor ~2 of |x| this stays below
  // eps * |x| for all but degenerate tiny values. Allow 2x headroom.
  std::size_t violations = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double rel = std::fabs(data[i] - rt.reconstructed[i]) /
                       std::max(1e-6, std::fabs(static_cast<double>(data[i])));
    if (rel > 2.0 * eps_percent / 100.0) ++violations;
  }
  EXPECT_EQ(violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperVariants, IsabelaErrorBound, ::testing::Values(1.0, 0.5, 0.1));

TEST(IsabelaCodec, TighterErrorCostsMoreBits) {
  const auto data = noisy_field(20000, 21);
  const RoundTrip loose = round_trip(IsabelaCodec(1.0), data, Shape::d1(data.size()));
  const RoundTrip tight = round_trip(IsabelaCodec(0.1), data, Shape::d1(data.size()));
  EXPECT_LT(loose.cr, tight.cr);
}

TEST(IsabelaCodec, VariantCrsAreClose) {
  // Paper: "the difference between the three ISABELA variants is small
  // [at single precision] because the sort index dominates".
  const auto data = noisy_field(20000, 22);
  const RoundTrip a = round_trip(IsabelaCodec(1.0), data, Shape::d1(data.size()));
  const RoundTrip b = round_trip(IsabelaCodec(0.1), data, Shape::d1(data.size()));
  EXPECT_LT(b.cr - a.cr, 0.25);
}

TEST(IsabelaCodec, HandlesShortTailWindow) {
  const auto data = noisy_field(1024 + 37, 23);  // final window is tiny
  const IsabelaCodec codec(0.5);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  EXPECT_EQ(rt.reconstructed.size(), data.size());
}

TEST(IsabelaCodec, HandlesConstantData) {
  std::vector<float> data(4096, 3.5f);
  const IsabelaCodec codec(0.5);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  for (float v : rt.reconstructed) EXPECT_NEAR(v, 3.5f, 3.5f * 0.005);
}

TEST(IsabelaCodec, HandlesAllZeroData) {
  std::vector<float> data(2048, 0.0f);
  const IsabelaCodec codec(1.0);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  for (float v : rt.reconstructed) EXPECT_EQ(v, 0.0f);
}

TEST(IsabelaCodec, DoublePathRoundTrips) {
  Pcg32 rng(24);
  std::vector<double> data(3000);
  for (auto& v : data) v = rng.uniform(10.0, 20.0);
  const IsabelaCodec codec(0.5);
  const Bytes stream = codec.encode64(data, Shape::d1(data.size()));
  const auto out = codec.decode64(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(out[i], data[i], data[i] * 0.02);
  }
}

TEST(IsabelaCodec, ThrowsOnCorruptStream) {
  const IsabelaCodec codec(0.5);
  Bytes garbage(32, 0xcd);
  EXPECT_THROW(codec.decode(garbage), FormatError);
}

TEST(IsabelaCodec, RejectsBadParameters) {
  EXPECT_THROW(IsabelaCodec(0.0), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(-1.0), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(0.5, 4), InvalidArgument);  // window too small
}

TEST(IsabelaCodec, RejectsParametersItsOwnDecoderWouldReject) {
  // decode() throws FormatError for coefficients < 4; encoding with such a
  // count would produce a stream no decoder accepts, so construction must
  // refuse it up front.
  EXPECT_THROW(IsabelaCodec(0.5, 1024, 3), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(0.5, 1024, 0), InvalidArgument);
  // The header stores the count as u16: 65536 would truncate to 0 on the
  // wire and decode as "bad parameters" even though encode() succeeded.
  EXPECT_THROW(IsabelaCodec(0.5, 1u << 20, 1u << 16), InvalidArgument);
  // The widest storable count still round-trips.
  const IsabelaCodec codec(0.5, 1u << 17, 0xffff);
  const auto data = noisy_field(300, 77);
  const Bytes stream = codec.encode(data, Shape::d1(data.size()));
  EXPECT_EQ(codec.decode(stream).size(), data.size());
}

/// An ISABELA stream header (float data) for `n` points, as decode()
/// reads it.
Bytes isa_header(std::size_t n, std::uint32_t window, std::uint16_t coefficients) {
  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, 0x31415349, Shape::d1(n));
  w.u8(sizeof(float));
  w.f64(0.01);
  w.u32(window);
  w.u16(coefficients);
  return out;
}

/// decode() must fail with FormatError or succeed; nothing else.
void expect_typed_outcome(const IsabelaCodec& codec, const Bytes& stream) {
  try {
    (void)codec.decode(stream);
  } catch (const FormatError&) {
  }
}

TEST(IsabelaCodec, HostileWindowHeadersFailTypedWithoutGrowingTheGeometryCache) {
  const IsabelaCodec codec(1.0, 16, 8);
  const std::size_t cached = CubicBSpline::cached_geometries();

  // More coefficients than samples (decode accepts up to len + 4; no
  // encoder writes it): evaluated directly, never tabled.
  {
    Bytes stream = isa_header(8, 16, 8);
    Bytes payload;
    ByteWriter pw(payload);
    pw.u32(8);   // window length
    pw.u16(12);  // coefficients
    pw.f64(1e-7);
    for (int c = 0; c < 12; ++c) pw.f64(1.0);
    pw.u8(0b10001000);  // permutation 0..7 at 3 bits each
    pw.u8(0b11000110);
    pw.u8(0b11111010);
    pw.raw(Bytes(16, 0));  // correction bytes
    ByteWriter w(stream);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    expect_typed_outcome(codec, stream);
  }
  // A window beyond the encoder's 2^20 bound whose length claims more
  // permutation bytes than the payload holds: FormatError before anything
  // of that length is allocated or tabled.
  {
    const std::size_t n = std::size_t{1} << 21;
    Bytes stream = isa_header(n, 1u << 22, 32);
    Bytes payload;
    ByteWriter pw(payload);
    pw.u32(static_cast<std::uint32_t>(n));
    pw.u16(32);
    pw.f64(1e-7);
    for (int c = 0; c < 32; ++c) pw.f64(1.0);
    ByteWriter w(stream);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
    EXPECT_THROW((void)codec.decode(stream), FormatError);
  }
  EXPECT_EQ(CubicBSpline::cached_geometries(), cached);
}

TEST(IsabelaCodec, GeometryCacheStaysBoundedAcrossManyWindowShapes) {
  // Every length below gives a different tail window, so each is a new
  // (n, k) geometry: the per-thread cache must cap its entries while
  // round trips stay within the error bound.
  const IsabelaCodec codec(1.0, 16, 8);
  for (std::size_t n = 17; n < 17 + 40; ++n) {
    const auto data = noisy_field(n, 100 + n);
    const auto out = codec.decode(codec.encode(data, Shape::d1(n)));
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], data[i], std::fabs(data[i]) * 0.011 + 1e-6);
    }
    EXPECT_LE(CubicBSpline::cached_geometries(), 16u);
  }
}

TEST(IsabelaCodec, NamesMatchPaperTables) {
  EXPECT_EQ(IsabelaCodec(0.1).name(), "ISA-0.1");
  EXPECT_EQ(IsabelaCodec(0.5).name(), "ISA-0.5");
  EXPECT_EQ(IsabelaCodec(1.0).name(), "ISA-1.0");
}

}  // namespace
}  // namespace cesm::comp
