#pragma once
// Traced replay: the workload's work redone at one worker through the
// layers' public functions, with a span around every call into a layer
// and a timing decorator around every codec. Spans come only from this
// code, never from the library's own trace tree; at one worker they nest
// strictly, so layer self-times plus the unattributed gaps add up to the
// replay's wall clock.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ooc.h"
#include "core/rmsz.h"
#include "core/suite.h"

namespace perfbench {

struct Replay {
  /// Results in the order replayed (batch/stream: the suite's variable
  /// order; serve: distinct variables in first-request order).
  std::vector<cesm::core::VariableResult> variables;
  Metrics layers;  ///< span-derived per-layer metrics plus trace.unattributed_s
  double wall_s = 0.0;
};

/// run_suite's work, variable by variable: synthesis, stats build, GRIB2
/// tuning, tests 1-3, the bias sweep and regression, then the CSV export.
Replay replay_batch(const cesm::climate::EnsembleGenerator& ensemble,
                    const cesm::core::SuiteConfig& config,
                    const std::vector<std::string>& variables,
                    const std::string& spans_path);

/// run_suite_streaming's work: staging each variable's spill, then
/// run_variable_streaming over it with its phase breakdown.
Replay replay_stream(const cesm::climate::EnsembleGenerator& ensemble,
                     const cesm::core::OocConfig& config,
                     const std::vector<std::string>& variables,
                     const std::string& spans_path);

/// The server's work for a request sequence: one verification per
/// request, with ensemble products built on first use of a variable and
/// reused afterwards, as the server's ensemble cache does.
Replay replay_serve(const cesm::climate::EnsembleGenerator& ensemble,
                    const cesm::core::SuiteConfig& config,
                    const std::vector<std::string>& requests,
                    const std::string& spans_path);

/// Names of every per-layer metric, in BENCHMARK.json order, with units.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
