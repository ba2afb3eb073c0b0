#include "core/grib_tuning.h"

#include <algorithm>
#include <atomic>

#include "compress/grib2/grib2.h"
#include "core/suite.h"
#include "util/error.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

GribTuning rmsz_guided_decimal_scale(const MemberSource& source,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds,
                                     int significant_digits, int max_extra_digits,
                                     std::size_t chunk_elems, comp::PlanStore* plans) {
  CESM_REQUIRE(!test_members.empty());
  trace::Span span("grib.tune");
  PvtVerifier verifier(source, thresholds);
  verifier.set_plan_store(plans);

  // Magnitude-based starting point from the probe member's range.
  const stats::Summary summary = source.stats().member_summary(test_members.front());
  const int d0 = comp::choose_decimal_scale(summary.min, summary.max, significant_digits);

  GribTuning tuning;
  tuning.decimal_scale = d0;
  for (int extra = 0; extra <= max_extra_digits; ++extra) {
    const int d = std::min(30, d0 + extra);
    const comp::CodecPtr codec =
        with_chunking(std::make_shared<comp::Grib2Codec>(d, fill), chunk_elems);
    ++tuning.attempts;
    trace::counter_add("grib.tune_attempts", 1);
    // The attempt passes iff every member passes, so skipping the members
    // not yet started after a failure saves work without changing it.
    std::atomic<bool> failed{false};
    parallel_for(0, test_members.size(), [&](std::size_t i) {
      if (failed.load(std::memory_order_relaxed)) return;
      const MemberEvaluation eval = verifier.evaluate_member(*codec, test_members[i]);
      if (!(eval.rho_pass && eval.rmsz_pass && eval.enmax_pass)) {
        failed.store(true, std::memory_order_relaxed);
      }
    });
    if (!failed.load()) {
      tuning.decimal_scale = d;
      tuning.passed = true;
      return tuning;
    }
    if (d == 30) break;
  }
  // No D passed: keep the finest attempted (the paper likewise reports
  // GRIB2 failures on large-range variables despite tuning).
  tuning.decimal_scale = std::min(30, d0 + max_extra_digits);
  tuning.passed = false;
  return tuning;
}

GribTuning rmsz_guided_decimal_scale(const EnsembleStats& stats,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds,
                                     int significant_digits, int max_extra_digits,
                                     std::size_t chunk_elems, comp::PlanStore* plans) {
  return rmsz_guided_decimal_scale(ResidentMembers(stats), fill, test_members, thresholds,
                                   significant_digits, max_extra_digits, chunk_elems,
                                   plans);
}

}  // namespace cesm::core
