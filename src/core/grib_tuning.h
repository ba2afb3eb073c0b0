#pragma once
// RMSZ-guided choice of the GRIB2 decimal scale factor D (§5.4).
//
// The paper reports that one global D gave "quite poor" results, a
// magnitude-based per-variable D improved matters, and competitive results
// required using the RMSZ ensemble test itself to pick D. This module
// implements that ladder: start from the magnitude heuristic and increase
// D (finer quantization, less compression) until a probe member passes the
// RMSZ and E_nmax acceptance rules — or the search gives up.

#include <optional>

#include "core/pvt.h"

namespace cesm::core {

struct GribTuning {
  int decimal_scale = 0;   ///< chosen D
  bool passed = false;     ///< probe member passed at this D
  int attempts = 0;        ///< D values tried
};

/// Tune D for the variable `source` serves. `fill` is forwarded to the
/// codec's native bitmap support. The magnitude heuristic reads the first
/// entry of `test_members`; an attempt passes when every test member
/// passes tests 1–3 (the bias sweep stays with the caller). Members are
/// evaluated in parallel, and once one fails the members not yet started
/// are skipped — the verdict, and so the result, is the same at any
/// worker count. Nonzero `chunk_elems` measures every attempt through a
/// ChunkedCodec with that partition (see SuiteConfig::chunk_elems).
/// `plans`, when non-null, shares each member's bitmap/min-max scan across
/// the whole candidate ladder and leaves the winning scale's wavelet lift
/// cached for the suite's GRIB2 variant verify (see prep.h).
GribTuning rmsz_guided_decimal_scale(const MemberSource& source,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds,
                                     int significant_digits, int max_extra_digits,
                                     std::size_t chunk_elems, comp::PlanStore* plans);

/// The same ladder over members resident in `stats`.
GribTuning rmsz_guided_decimal_scale(const EnsembleStats& stats,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds = {},
                                     int significant_digits = 4,
                                     int max_extra_digits = 6,
                                     std::size_t chunk_elems = 0,
                                     comp::PlanStore* plans = nullptr);

}  // namespace cesm::core
