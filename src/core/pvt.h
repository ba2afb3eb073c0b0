#pragma once
// The CESM-PVT-based verification of a compression method (§4.3).
//
// For one variable, given its perturbation ensemble:
//   1. ρ test        — Pearson correlation >= 0.99999 (§4.2);
//   2. RMSZ test     — reconstructed member's RMSZ falls inside the
//                      ensemble RMSZ distribution AND differs from the
//                      original member's score by <= 1/10 (eq. 8);
//   3. E_nmax test   — e_nmax(original, reconstructed) is <= 1/10 of the
//                      ensemble E_nmax range (eq. 11);
//   4. bias test     — eq. (9) over all members (see core/bias.h).
// Tests 1–3 run on a small set of randomly chosen members (the paper uses
// three); the bias test scores the reconstruction of every member, through
// Codec::reconstruct_into — bit-identical to a round trip, without the
// stream (so no CR and no decode-side faults). Members come from a
// MemberSource (core/member_source.h), so this one implementation serves
// both resident and spilled ensembles.
//
// Every score comes from one member-major pass: a parallel loop over
// members in which a lane walks member m's chunks once, derives each
// chunk's leave-one-out mean and spread once (they do not depend on the
// codec), builds each codec family's encode-prep plan once, and then runs
// every variant over the chunk — a round trip for a test member, a
// reconstruction for the rest — feeding per-variant z-score accumulators.
// A variant that throws at a member is settled by its lowest failing
// member, so outcomes and messages do not depend on the worker count.

#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/prep.h"
#include "core/bias.h"
#include "core/member_source.h"
#include "core/metrics.h"
#include "core/rmsz.h"
#include "util/arena.h"

namespace cesm::core {

struct PvtThresholds {
  double pearson_min = kPearsonThreshold;
  double rmsz_diff_max = 0.1;    ///< eq. (8)
  double enmax_ratio_max = 0.1;  ///< eq. (11)
  double bias_confidence = 0.95;
  /// Finite-ensemble allowance for the "falls within the distribution"
  /// check: the acceptance window is widened by this fraction of the
  /// distribution range on each side. With the paper's 101 members the
  /// window is broad and this barely matters; it keeps the check from
  /// penalizing a member that *is* the distribution extreme.
  double rmsz_range_slack = 0.05;
};

/// Per-member outcome of tests 1–3.
struct MemberEvaluation {
  std::size_t member = 0;
  double cr = 1.0;
  ErrorMetrics metrics;              ///< §4.2 errors vs the original member
  double rmsz_original = 0.0;
  double rmsz_reconstructed = 0.0;
  double rmsz_diff = 0.0;
  bool rmsz_in_distribution = false;
  double enmax_ratio = 0.0;          ///< e_nmax / R_{E_nmax}
  bool rho_pass = false;
  bool rmsz_pass = false;
  bool enmax_pass = false;
};

/// Verdict for one (variable, codec) pair — one cell of Table 6.
struct VariableVerdict {
  std::string variable;
  std::string codec;
  std::vector<MemberEvaluation> members;
  BiasResult bias;
  bool bias_evaluated = false;
  double mean_cr = 1.0;   ///< average CR over the evaluated members
  bool rho_pass = false;
  bool rmsz_pass = false;
  bool enmax_pass = false;
  bool bias_pass = false;
  /// The intended (lossy) codec failed outright — decode threw — and the
  /// recorded member metrics, if any, come from `fallback_codec` instead
  /// (§5 hybrid semantics: a variable the lossy method cannot serve is
  /// stored lossless). A codec-error verdict never counts as a pass.
  bool codec_error = false;
  std::string error_message;   ///< what the failing codec threw
  std::string fallback_codec;  ///< lossless stand-in name; empty if none ran

  [[nodiscard]] bool all_pass() const {
    return !codec_error && rho_pass && rmsz_pass && enmax_pass && bias_pass;
  }
};

/// Tests 1–4 for one variable, over any MemberSource.
class PvtVerifier {
 public:
  /// Verifies the members resident in `stats` (which must outlive the
  /// verifier).
  explicit PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds = {});
  /// Verifies the members `source` serves (which must outlive the
  /// verifier).
  explicit PvtVerifier(const MemberSource& source, PvtThresholds thresholds = {});
  ~PvtVerifier();

  /// Tests 1–3 for one member (safe to call concurrently).
  [[nodiscard]] MemberEvaluation evaluate_member(const comp::Codec& codec,
                                                 std::size_t member) const;

  /// One variant's outcome of verify_variants().
  struct VariantOutcome {
    VariableVerdict verdict;
    /// What the variant threw at its lowest failing member; `verdict`
    /// then carries only the variable and codec names.
    std::exception_ptr error;
  };

  /// Verdicts for several codecs from one member-major pass: tests 1–3 on
  /// `test_members` (round trips, whose reconstructed RMSZ also seeds the
  /// bias sweep), bias over all members when `run_bias` (the rest are
  /// reconstructed). A codec that throws does not disturb the others; a
  /// fault reading a member (spill I/O, checksum) is no codec's and
  /// propagates. An empty `codecs` walks no member and returns no outcome.
  ///
  /// The steady-state loop (same verifier, successive calls) reuses a
  /// scratch arena for its per-member bookkeeping and the verifier's lane
  /// buffers: after the first call the arena does not grow (asserted via
  /// the "arena.grow" trace counter) and no lane is allocated. Consequently
  /// verify() and verify_variants() must not run concurrently on one
  /// verifier; distinct verifiers, even over one source, remain independent.
  [[nodiscard]] std::vector<VariantOutcome> verify_variants(
      std::span<const comp::Codec* const> codecs, std::span<const std::size_t> test_members,
      bool run_bias = true) const;

  /// verify_variants() for one codec; rethrows what it threw.
  [[nodiscard]] VariableVerdict verify(const comp::Codec& codec,
                                       std::span<const std::size_t> test_members,
                                       bool run_bias = true) const;

  /// Reconstructed-ensemble RMSZ scores (one per member) — Figure 4's
  /// y-axis data and the bias test input. The same pass, every member
  /// reconstructed.
  [[nodiscard]] std::vector<double> reconstructed_rmsz(const comp::Codec& codec) const;

  /// The paper's "choose three members at random".
  static std::vector<std::size_t> pick_members(std::size_t count, std::size_t member_count,
                                               std::uint64_t seed);

  /// Attach a shared encode-prep plan store (see prep.h): test-member
  /// round trips then take their plans from it (keyed per member and
  /// chunk), sharing them with the probe and tuning encodes. Reconstructed
  /// members use lane-local plans either way. The store may be shared
  /// across verifiers (it is thread-safe); plans never change the produced
  /// streams, so verdicts are bit-identical with or without one. Null
  /// detaches.
  void set_plan_store(comp::PlanStore* plans) { plans_ = plans; }

  [[nodiscard]] const MemberSource& source() const { return *source_; }
  [[nodiscard]] const PvtThresholds& thresholds() const { return thresholds_; }

  /// The pool of pass lanes (defined in pvt.cpp).
  struct Lanes;

 private:
  std::unique_ptr<const MemberSource> owned_;  ///< set when built from stats
  const MemberSource* source_;
  PvtThresholds thresholds_;
  comp::PlanStore* plans_ = nullptr;
  /// Reusable verify-loop scratch (bias-sweep bookkeeping). Mutable so
  /// the logically-const verify() can recycle capacity across calls.
  mutable util::ScratchArena scratch_;
  /// Pass lanes kept for the verifier's lifetime (thread-safe pool).
  std::unique_ptr<Lanes> lanes_;
};

}  // namespace cesm::core
