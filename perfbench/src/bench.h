#pragma once
// Shared pieces of the repository benchmark (see perfbench/README.md):
// the metric record every workload fills, the verdict digest that is its
// correctness gate, and small measurement helpers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"

namespace perfbench {

/// Worker count of every timed run (the benchmark's reference host has 4
/// cores; the host record states the machine's actual count).
inline constexpr std::size_t kWorkers = 4;

/// How many times set-up is repeated per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";    ///< scratch space (spill files) inside the checkout
  std::string reference;        ///< recorded digests (perfbench/reference.txt)
  bool record = false;          ///< print the digests instead of checking them
};

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  /// The value of `name`, 0 when it was never set.
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;  ///< filled by traced runs only

  /// Mark the run incorrect, saying why on stderr.
  void fail(const std::string& why);
};

/// Digest of the verdicts a suite run produced: per variable its name,
/// processing flag and GRIB2 scale; per verdict the pass flags, the
/// codec-error flag and the bit patterns of the mean CR; per evaluated
/// member the bit patterns of CR, rho and reconstructed RMSZ. It does not
/// read CSV text, so a change of the CSV schema leaves it unchanged.
std::uint64_t verdict_digest(const std::vector<cesm::core::VariableResult>& variables);

/// Failed operations of a batch run: variants lost to processing_failed
/// variables plus codec-error verdicts.
std::uint64_t failed_cells(const cesm::core::SuiteResults& results);

/// Check `digest` against the digest recorded under `key` in the
/// reference file (with args.record, print it in that file's format
/// instead). A missing or different record fails the outcome.
void check_reference(const Args& args, const std::string& key, std::uint64_t digest,
                     Outcome& out);

/// The default seed: for it the full timed digest is also checked against
/// the recorded reference.
inline constexpr std::uint64_t kDefaultSeed = 1;

double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> values, double p);
/// User + system CPU seconds of this process so far (all threads).
double cpu_seconds();
double mib(std::uint64_t bytes);

/// Cold in-memory ensemble cache (default size, no disk tier).
void reset_ensemble_cache();

/// The host record: cores, CPU model, AVX2, CESM_SIMD, workers, build.
std::string host_record_json(bool rss_reset_supported);

std::string hex64(std::uint64_t v);

/// The reduced-grid, 101-member ensemble of the batch workloads.
cesm::climate::EnsembleSpec reduced_spec();
cesm::climate::EnsembleSpec paper_spec();

/// Workload entry points (workloads.cpp). Each measures with tracing off;
/// with args.trace it also runs the traced replay (replay.cpp).
Outcome run_table6_bias(const Args& args);
Outcome run_screen_nobias(const Args& args);
Outcome run_stream_paper(const Args& args);
Outcome run_serve_mix(const Args& args);

}  // namespace perfbench
