#pragma once
// Out-of-core full-grid verification (the streaming leg).
//
// A paper-scale variable (101 members of a full CAM grid) does not fit
// in memory next to its derived statistics, so this module runs the §4
// methodology without ever materializing a full ensemble:
//
//   1. stage_variable — synthesis writes every member chunk-by-chunk into
//      a CNK1 spill store (ncio/chunkstore.h), members in parallel on the
//      work-stealing scheduler;
//   2. build_spilled_stats — the one statistics build (core/rmsz.h,
//      SufficientStats::build) reads the store in two passes: pass 1 one
//      chunk of every member at a time, pass 2 each member double-buffered.
//      The result is the SufficientStats EnsembleStats holds, minus the
//      resident member fields;
//   3. run_variable_streaming — the verification pipeline run_variable
//      uses (core/suite.h, verify_variable), fed by a spilled
//      MemberSource (core/member_source.h): each member round-trips chunk
//      by chunk through the wrapped variant's inner codec, with the next
//      chunk read prefetched on the scheduler while the current one is
//      processed.
//
// Bitwise parity is by construction, not by tolerance: tests 1–3, the
// bias sweep, tuning and fallback are one implementation over either
// member source; the pipeline scores chunk pairs with the streaming
// kernels (stats/kernels.h), which re-align chunk feeds to the one-shot
// kernels' block grid; and the chunk partition is the same ChunkedCodec
// partition an in-core run with SuiteConfig::chunk_elems uses. An in-core
// run_variable with config.chunk_elems == OocConfig::chunk_elems
// therefore produces a bit-identical VariableResult — the property the
// full-grid bench gate asserts.
//
// Memory honesty: every slab the pipeline allocates (chunk buffers,
// per-point arrays, codec scratch allowances) is charged to a
// util::MemoryBudget; with CESM_MEM_MB set, exceeding the cap is an
// error, not a slowdown.
//
// Multi-variable concurrency: run_suite_streaming pipelines variables as
// concurrent jobs (OocConfig::parallel_variables), all charging ONE shared
// MemoryBudget. Each variable computes its full working-set bound up front
// (ooc_working_set_bytes) and acquires it as a single all-or-nothing
// reservation — a variable that does not fit *parks* behind the budget's
// FIFO admission queue instead of throwing, so CESM_MEM_MB stays a hard
// cap under contention, admission order cannot starve a large variable,
// and (because no admitted variable ever waits for more memory) the
// schedule cannot deadlock. Results are written to fixed slots, so the
// suite CSV is byte-identical to the serial run at any job count.
//
// Spill reuse: with OocConfig::reuse_spill, spill files are
// content-addressed on the same (EnsembleSpec, VariableSpec) key schema as
// EnsembleCache (plus the chunk partition and spill format version), so a
// later suite run finds its staged members on disk, validates the CNK1 v2
// checksums, and skips synthesis entirely. A spill that fails validation —
// or fails mid-run after being reused — is deleted, counted, and restaged
// by the guarded retry, never trusted. Non-reusable runs stage into a
// unique per-run subdirectory (SpillSession) so concurrent processes
// sharing one spill_dir cannot collide on per-variable filenames.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "climate/ensemble.h"
#include "core/rmsz.h"
#include "core/suite.h"
#include "ncio/chunkstore.h"
#include "util/memory.h"

namespace cesm::core {

struct OocConfig {
  /// Target elements per chunk (the ChunkedCodec partition). Must equal
  /// the in-core leg's SuiteConfig::chunk_elems for parity; >= 1024.
  std::size_t chunk_elems = 1 << 16;
  /// Directory for CNK1 spill files (must exist and be writable).
  std::string spill_dir = "/tmp";
  /// Logical working-set cap in bytes; 0 means "account only". Callers
  /// usually seed this from util::memory_budget_bytes() (CESM_MEM_MB).
  std::uint64_t memory_budget_bytes = 0;
  /// Keep the spill file after the variable finishes (debugging).
  bool keep_spill = false;
  /// Concurrent variable jobs in run_suite_streaming: 0 = auto (one job
  /// per scheduler worker), 1 = serial, N = exactly N jobs. All jobs
  /// charge one shared MemoryBudget via working-set reservations.
  std::size_t parallel_variables = 0;
  /// Content-address spill files on (EnsembleSpec, VariableSpec,
  /// chunk partition) and keep them after the run: a later run reuses a
  /// staged spill (after checksum validation) instead of re-synthesizing.
  bool reuse_spill = false;
  /// Byte budget for the reusable spill store in spill_dir (0 = no
  /// limit). After each variable, oldest spills are evicted until the
  /// store fits — same mtime-ordered policy as the DiskCache tier.
  std::uint64_t spill_budget_bytes = 0;
  /// Caller-owned shared admission budget for run_suite_streaming; when
  /// null the suite builds its own from memory_budget_bytes. Exposed so
  /// tests and benches can observe peak/waits across a run.
  util::MemoryBudget* shared_budget = nullptr;
  /// Everything else (thresholds, member picks, bias policy, retries).
  /// `suite.chunk_elems` is ignored here: the streaming leg always uses
  /// OocConfig::chunk_elems.
  SuiteConfig suite;
};

/// Upper bound on the resident working set of one streaming variable run
/// at the current scheduler width: the per-point statistic planes, the
/// per-member moment slots, and the widest per-lane chunk-buffer
/// allowance of any phase. This is the exact peak the per-variable charge
/// sequence can reach, so reserving it up front on a shared budget
/// guarantees the variable never over-draws its admission.
std::uint64_t ooc_working_set_bytes(const climate::EnsembleGenerator& ensemble,
                                    const climate::VariableSpec& spec,
                                    std::size_t chunk_elems);

/// Content hash of everything that determines a staged spill's bytes:
/// the EnsembleCache key schema for (spec, var) plus the chunk partition
/// and the CNK1 format version.
std::uint64_t spill_key(const climate::EnsembleSpec& spec,
                        const climate::VariableSpec& var, std::size_t chunk_elems);

/// Where a reusable spill for `key` lives: "<dir>/<var>-<16-hex-key>.cnk1".
std::string spill_path(const std::string& dir, const std::string& variable,
                       std::uint64_t key);

/// Unique per-run spill subdirectory ("<base>/cesm-spill-<pid>-<token>"),
/// created on construction and removed recursively on destruction unless
/// asked to keep it. The fix for concurrent processes sharing one
/// spill_dir: per-(member, variable) filenames only ever collide inside a
/// single run's private directory, and unwinding (including a signal
/// drain) cleans the whole directory up.
class SpillSession {
 public:
  explicit SpillSession(const std::string& base_dir, bool keep = false);
  ~SpillSession();

  SpillSession(const SpillSession&) = delete;
  SpillSession& operator=(const SpillSession&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  bool keep_ = false;
};

/// Phase breakdown and I/O counters of one streaming variable run — the
/// BENCH_suite.json streaming-phase record.
struct OocPhaseStats {
  double stage_seconds = 0.0;   ///< synthesis -> spill store
  double stats_seconds = 0.0;   ///< build_spilled_stats two-pass build
  double verify_seconds = 0.0;  ///< tuning + all variant verdicts
  std::uint64_t bytes_spilled = 0;        ///< CNK1 payload written
  std::uint64_t peak_logical_bytes = 0;   ///< MemoryBudget high-water mark
  std::uint64_t budget_cap_bytes = 0;     ///< the cap charged against (0 = none)
};

/// The ensemble statistics of a staged variable: SufficientStats::build
/// (core/rmsz.h) fed from `store`, the same build EnsembleStats runs over
/// resident members, minus the members. `budget` is charged for every
/// resident array and read buffer.
SufficientStats build_spilled_stats(const ncio::ChunkStoreReader& store,
                                    util::MemoryBudget& budget);

/// The members of a staged variable as the verification pipeline reads
/// them (core/member_source.h): walks read each CNK1 chunk once, codecs
/// must be ChunkedCodecs over the store's partition, scores are against
/// `stats`, and lane-local encode-prep plans are charged to `budget`. All
/// three must outlive the source.
std::unique_ptr<MemberSource> spilled_members(const ncio::ChunkStoreReader& store,
                                              const SufficientStats& stats,
                                              util::MemoryBudget& budget);

/// Synthesize one variable's full ensemble into a CNK1 store at `path`
/// (members in parallel, chunk-granular writes; never more than one chunk
/// of one member resident per worker). The chunk partition is the
/// ChunkedCodec partition for `chunk_elems`. Synthesis runs under an
/// "ensemble.synthesize" span, so a trace with zero such spans proves a
/// warm run never regenerated data.
void stage_variable_at(const climate::EnsembleGenerator& ensemble,
                       const climate::VariableSpec& spec, const std::string& path,
                       std::size_t chunk_elems, util::MemoryBudget& budget);

/// stage_variable_at with the classic `dir/<variable>.cnk1` naming.
/// Returns the store path.
std::string stage_variable(const climate::EnsembleGenerator& ensemble,
                           const climate::VariableSpec& spec, const std::string& dir,
                           std::size_t chunk_elems, util::MemoryBudget& budget);

/// run_variable over members staged in a spill store: stage, build the
/// statistics from the store, then run the shared variable body (verify_variable) on
/// the spilled source — a bit-identical VariableResult to an in-core run
/// with SuiteConfig::chunk_elems == config.chunk_elems, under a working
/// set of chunks instead of members. `phases`, when non-null,
/// receives the phase breakdown.
///
/// `shared`, when non-null, is a suite-level admission budget: the
/// variable reserves its full ooc_working_set_bytes on it (parking under
/// contention) and runs its fine-grained charges against a private
/// sub-budget capped at that reservation, so the shared cap stays a hard
/// bound no matter how many variables are in flight. When null the
/// variable budgets directly against config.memory_budget_bytes with the
/// PR 8 fail-fast semantics.
VariableResult run_variable_streaming(const climate::EnsembleGenerator& ensemble,
                                      const climate::VariableSpec& spec,
                                      const OocConfig& config,
                                      OocPhaseStats* phases = nullptr,
                                      util::MemoryBudget* shared = nullptr);

/// run_suite over spilled members: variables stream as concurrent jobs
/// (config.parallel_variables) under one shared admission budget, through
/// the guarded retry run_suite uses (run_variable_guarded). Results land
/// in catalog order regardless of job count — the CSV is byte-identical
/// to a serial run.
SuiteResults run_suite_streaming(const climate::EnsembleGenerator& ensemble,
                                 const OocConfig& config,
                                 std::vector<std::string> variables = {});

}  // namespace cesm::core
