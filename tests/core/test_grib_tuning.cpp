#include "core/grib_tuning.h"

#include <gtest/gtest.h>

#include <cmath>

#include "compress/grib2/grib2.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace cesm::core {
namespace {

std::vector<climate::Field> members_with_scale(std::size_t members, std::size_t n,
                                               double offset, double amplitude,
                                               double spread, std::uint64_t seed) {
  std::vector<climate::Field> fields(members);
  for (std::size_t m = 0; m < members; ++m) {
    NormalSampler rng(hash_combine(seed, m));
    fields[m].name = "X";
    fields[m].shape = comp::Shape::d1(n);
    fields[m].data.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      fields[m].data[i] = static_cast<float>(offset + amplitude * std::sin(i * 0.05) +
                                             spread * rng.next());
    }
  }
  return fields;
}

TEST(GribTuning, FindsPassingScaleForBenignVariable) {
  const EnsembleStats stats(members_with_scale(15, 600, 100.0, 20.0, 1.0, 0x1));
  const std::vector<std::size_t> probes = {2, 9};
  const GribTuning t = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  EXPECT_TRUE(t.passed);

  // The chosen D must actually pass the member tests.
  const PvtVerifier verifier(stats);
  const comp::Grib2Codec codec(t.decimal_scale, std::nullopt);
  for (std::size_t m : probes) {
    const MemberEvaluation e = verifier.evaluate_member(codec, m);
    EXPECT_TRUE(e.rho_pass && e.rmsz_pass && e.enmax_pass);
  }
}

TEST(GribTuning, StartsFromMagnitudeHeuristicAndRefines) {
  // Tight ensemble spread forces a finer D than the 4-digit heuristic.
  const EnsembleStats stats(members_with_scale(15, 600, 0.0, 50.0, 1e-4, 0x2));
  const std::vector<std::size_t> probes = {4};
  const GribTuning t =
      rmsz_guided_decimal_scale(stats, std::nullopt, probes, PvtThresholds{});
  const climate::Field& probe = stats.member(4);
  const auto s = stats::summarize(std::span<const float>(probe.data));
  const int d0 = comp::choose_decimal_scale(s.min, s.max, 4);
  EXPECT_GE(t.decimal_scale, d0);
  EXPECT_GT(t.attempts, 1);
}

TEST(GribTuning, ReportsFailureWhenSearchBudgetExhausted) {
  // Huge range, tiny genuine spread: the heuristic D quantizes far coarser
  // than the ensemble sigma, and with no extra digits allowed the tuner
  // must report failure while keeping the finest D it tried.
  const EnsembleStats stats(members_with_scale(15, 400, 0.0, 1.0e4, 0.05, 0x3));
  const std::vector<std::size_t> probes = {1};
  const GribTuning t = rmsz_guided_decimal_scale(stats, std::nullopt, probes,
                                                 PvtThresholds{}, 4, 0);
  EXPECT_FALSE(t.passed);
  EXPECT_EQ(t.attempts, 1);
}

TEST(GribTuning, TunedScaleIsDeterministic) {
  const EnsembleStats stats(members_with_scale(12, 500, 50.0, 10.0, 0.5, 0x4));
  const std::vector<std::size_t> probes = {0, 5};
  const GribTuning a = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  const GribTuning b = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  EXPECT_EQ(a.decimal_scale, b.decimal_scale);
  EXPECT_EQ(a.passed, b.passed);
}

TEST(GribTuning, SameTuningAtOneAndFourWorkers) {
  // Test members run in parallel and a failed member skips the ones not
  // yet started; that only saves work, so the ladder must land on the same
  // D after the same number of attempts at any worker count — both for a
  // ladder that refines to a pass and for one that exhausts its budget.
  struct Case {
    double amplitude, spread;
    int max_extra_digits;
    bool passes;
  };
  for (const Case& c : {Case{50.0, 1e-4, 6, true}, Case{1.0e6, 0.05, 2, false}}) {
    SCOPED_TRACE("spread " + std::to_string(c.spread));
    const EnsembleStats stats(members_with_scale(15, 600, 0.0, c.amplitude, c.spread, 0x5));
    const std::vector<std::size_t> probes = {2, 6, 11};
    GribTuning serial;
    GribTuning parallel;
    {
      ScopedScheduler sched(1);
      serial = rmsz_guided_decimal_scale(stats, std::nullopt, probes, PvtThresholds{}, 4,
                                         c.max_extra_digits);
    }
    {
      ScopedScheduler sched(4);
      parallel = rmsz_guided_decimal_scale(stats, std::nullopt, probes, PvtThresholds{}, 4,
                                           c.max_extra_digits);
    }
    EXPECT_EQ(serial.passed, c.passes);
    EXPECT_GT(serial.attempts, 1);
    EXPECT_EQ(parallel.decimal_scale, serial.decimal_scale);
    EXPECT_EQ(parallel.attempts, serial.attempts);
    EXPECT_EQ(parallel.passed, serial.passed);
  }
}

}  // namespace
}  // namespace cesm::core
