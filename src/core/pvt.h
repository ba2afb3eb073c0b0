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

  /// Tests 1–3 for one member.
  [[nodiscard]] MemberEvaluation evaluate_member(const comp::Codec& codec,
                                                 std::size_t member) const;

  /// Full verdict: tests 1–3 on `test_members` (full round trips), bias
  /// over all members when `run_bias` (reconstructs the rest of the
  /// ensemble; parallelized).
  ///
  /// The steady-state loop (same verifier, successive codecs) reuses a
  /// scratch arena for its per-member bookkeeping and the source's
  /// recycled reconstruction buffers: after the first call the arena does
  /// not grow (asserted via the "arena.grow" trace counter).
  /// Consequently verify() must not run concurrently on one verifier;
  /// distinct verifiers, even over one source, remain independent.
  [[nodiscard]] VariableVerdict verify(const comp::Codec& codec,
                                       std::span<const std::size_t> test_members,
                                       bool run_bias = true) const;

  /// Reconstructed-ensemble RMSZ scores (one per member) — Figure 4's
  /// y-axis data and the bias test input.
  [[nodiscard]] std::vector<double> reconstructed_rmsz(const comp::Codec& codec) const;

  /// The paper's "choose three members at random".
  static std::vector<std::size_t> pick_members(std::size_t count, std::size_t member_count,
                                               std::uint64_t seed);

  /// Attach a shared encode-prep plan store (see prep.h): every encode
  /// this verifier performs is then plan-driven (the source picks the
  /// block keys). The store may be shared across verifiers (it is
  /// thread-safe); plans never change the produced streams, so verdicts
  /// are bit-identical with or without one. Null detaches.
  void set_plan_store(comp::PlanStore* plans) { plans_ = plans; }

  [[nodiscard]] const MemberSource& source() const { return *source_; }
  [[nodiscard]] const PvtThresholds& thresholds() const { return thresholds_; }

 private:
  /// One member's reconstructed RMSZ (the bias sweep's per-member score),
  /// from MemberSource::reconstruct — no stream, CR or decode.
  [[nodiscard]] double reconstructed_rmsz_of(const comp::Codec& codec,
                                             std::size_t member) const;

  /// Fill `scores` (one slot per member) with the reconstructed-ensemble
  /// RMSZ; the allocation-free core of reconstructed_rmsz(). Members
  /// already scored by `known` evaluations (the verify() test members)
  /// are seeded from eval.rmsz_reconstructed instead of being reconstructed
  /// again — codecs are deterministic and reconstruct_into is bit-identical
  /// to the round trip, so the reused score is bit-exact.
  void reconstructed_rmsz_into(const comp::Codec& codec, std::span<double> scores,
                               std::span<const MemberEvaluation> known) const;

  std::unique_ptr<const MemberSource> owned_;  ///< set when built from stats
  const MemberSource* source_;
  PvtThresholds thresholds_;
  comp::PlanStore* plans_ = nullptr;
  /// Reusable verify-loop scratch (bias-sweep bookkeeping). Mutable so
  /// the logically-const verify() can recycle capacity across calls.
  mutable util::ScratchArena scratch_;
};

}  // namespace cesm::core
