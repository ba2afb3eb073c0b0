#include "core/pvt.h"

#include <algorithm>
#include <cmath>

#include "stats/correlation.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

/// The scalar tail of a member evaluation: given the raw measurements (CR,
/// §4.2 metrics, original and reconstructed RMSZ) and the ensemble's
/// precomputed distribution extremes, derive the eq. (8)/(11) windows and
/// the per-test pass flags.
MemberEvaluation finish_member_evaluation(std::size_t member, double cr,
                                          const ErrorMetrics& metrics,
                                          double rmsz_original,
                                          double rmsz_reconstructed,
                                          std::pair<double, double> rmsz_range,
                                          double enmax_range,
                                          const PvtThresholds& thresholds) {
  MemberEvaluation eval;
  eval.member = member;
  eval.cr = cr;
  eval.metrics = metrics;
  eval.rmsz_original = rmsz_original;
  eval.rmsz_reconstructed = rmsz_reconstructed;
  eval.rmsz_diff = std::fabs(rmsz_original - rmsz_reconstructed);
  const auto [lo, hi] = rmsz_range;
  const double slack = thresholds.rmsz_range_slack * (hi - lo);
  eval.rmsz_in_distribution =
      rmsz_reconstructed >= lo - slack && rmsz_reconstructed <= hi + slack;
  eval.enmax_ratio =
      enmax_range > 0.0 ? metrics.e_nmax / enmax_range : metrics.e_nmax;
  eval.rho_pass = metrics.pearson >= thresholds.pearson_min;
  eval.rmsz_pass =
      eval.rmsz_in_distribution && eval.rmsz_diff <= thresholds.rmsz_diff_max;
  eval.enmax_pass = eval.enmax_ratio <= thresholds.enmax_ratio_max;
  return eval;
}

/// Fold `verdict.members` into the verdict's per-test pass flags and mean
/// CR (serial, member order).
void fold_member_flags(VariableVerdict& verdict) {
  verdict.rho_pass = verdict.rmsz_pass = verdict.enmax_pass = true;
  double cr_sum = 0.0;
  for (const MemberEvaluation& eval : verdict.members) {
    verdict.rho_pass = verdict.rho_pass && eval.rho_pass;
    verdict.rmsz_pass = verdict.rmsz_pass && eval.rmsz_pass;
    verdict.enmax_pass = verdict.enmax_pass && eval.enmax_pass;
    cr_sum += eval.cr;
  }
  verdict.mean_cr = cr_sum / static_cast<double>(verdict.members.size());
}

/// The mask slice of chunk [lo, lo + len), empty when every point is valid.
std::span<const std::uint8_t> mask_slice(const SufficientStats& ens, std::size_t lo,
                                         std::size_t len) {
  return ens.mask().empty() ? ens.mask() : ens.mask().subspan(lo, len);
}

/// Eq. (6) z-scores of reconstructed chunks against the sub-ensemble that
/// excludes the original member.
stats::kernels::ZScoreStream zscore_stream(const SufficientStats& ens) {
  return stats::kernels::ZScoreStream(static_cast<double>(ens.member_count()),
                                      kDegenerateSpreadRelTol, !ens.mask().empty());
}

void feed_zscores(stats::kernels::ZScoreStream& zs, const SufficientStats& ens,
                  std::size_t lo, std::span<const float> original,
                  std::span<const float> reconstructed) {
  const std::size_t len = original.size();
  zs.feed(reconstructed, original, ens.sum().subspan(lo, len), ens.sum_sq().subspan(lo, len),
          mask_slice(ens, lo, len));
}

}  // namespace

PvtVerifier::PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds)
    : owned_(std::make_unique<ResidentMembers>(stats)),
      source_(owned_.get()),
      thresholds_(thresholds) {}

PvtVerifier::PvtVerifier(const MemberSource& source, PvtThresholds thresholds)
    : source_(&source), thresholds_(thresholds) {}

MemberEvaluation PvtVerifier::evaluate_member(const comp::Codec& codec,
                                              std::size_t member) const {
  const MemberSource& src = *source_;
  const SufficientStats& ens = src.stats();
  CESM_REQUIRE(member < ens.member_count());
  // Tests 1–3 from one round trip: the §4.2 error norms, the Pearson
  // co-moments and the reconstruction's z-scores, fed chunk by chunk.
  const bool masked = !ens.mask().empty();
  stats::kernels::ErrorNormStream err(masked);
  stats::kernels::CoMomentStream co(masked);
  stats::kernels::ZScoreStream zs = zscore_stream(ens);
  const double cr = src.round_trip(
      codec, member, plans_,
      [&](std::size_t lo, std::span<const float> x, std::span<const float> y) {
        const std::span<const std::uint8_t> mask = mask_slice(ens, lo, x.size());
        err.feed(x, y, mask);
        co.feed(x, y, mask);
        feed_zscores(zs, ens, lo, x, y);
      });
  trace::counter_add("pvt.member_roundtrips", 1);

  const stats::Summary& s = ens.member_summary(member);
  const ErrorMetrics metrics =
      error_metrics_from(err.finish(), s.range(), std::max(std::fabs(s.min), std::fabs(s.max)),
                         stats::pearson_from_accum(co.finish()));
  return finish_member_evaluation(member, cr, metrics, ens.rmsz(member),
                                  rmsz_from_accum(zs.finish()), ens.rmsz_range(),
                                  ens.enmax_range(), thresholds_);
}

double PvtVerifier::reconstructed_rmsz_of(const comp::Codec& codec,
                                          std::size_t member) const {
  stats::kernels::ZScoreStream zs = zscore_stream(source_->stats());
  source_->reconstruct(
      codec, member, plans_,
      [&](std::size_t lo, std::span<const float> x, std::span<const float> y) {
        feed_zscores(zs, source_->stats(), lo, x, y);
      });
  trace::counter_add("pvt.member_reconstructs", 1);
  return rmsz_from_accum(zs.finish());
}

void PvtVerifier::reconstructed_rmsz_into(const comp::Codec& codec,
                                          std::span<double> scores,
                                          std::span<const MemberEvaluation> known) const {
  trace::Span span("pvt.bias_sweep");
  const std::size_t m_count = source_->stats().member_count();
  CESM_REQUIRE(scores.size() == m_count);

  // Seed the scores the test-member evaluations already computed: the
  // codec is deterministic, so re-compressing member m would reproduce
  // the identical reconstruction and the identical RMSZ.
  const std::span<std::uint8_t> seeded = scratch_.get<std::uint8_t>(1, m_count);
  std::fill(seeded.begin(), seeded.end(), std::uint8_t{0});
  std::uint64_t reused = 0;
  for (const MemberEvaluation& eval : known) {
    if (eval.member < m_count && seeded[eval.member] == 0) {
      scores[eval.member] = eval.rmsz_reconstructed;
      seeded[eval.member] = 1;
      ++reused;
    }
  }
  trace::counter_add("pvt.bias_reused", reused);

  const std::span<std::size_t> pending = scratch_.get<std::size_t>(2, m_count);
  std::size_t pending_count = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (seeded[m] == 0) pending[pending_count++] = m;
  }
  // Each member writes its own score slot, so the sweep is
  // bit-deterministic at any worker count.
  parallel_for(0, pending_count, [&](std::size_t i) {
    scores[pending[i]] = reconstructed_rmsz_of(codec, pending[i]);
  });
}

std::vector<double> PvtVerifier::reconstructed_rmsz(const comp::Codec& codec) const {
  std::vector<double> scores(source_->stats().member_count());
  reconstructed_rmsz_into(codec, scores, {});
  return scores;
}

VariableVerdict PvtVerifier::verify(const comp::Codec& codec,
                                    std::span<const std::size_t> test_members,
                                    bool run_bias) const {
  CESM_REQUIRE(!test_members.empty());
  trace::Span span("pvt.verify");
  VariableVerdict verdict;
  verdict.variable = source_->variable();
  verdict.codec = codec.name();

  // Evaluate test members in parallel into per-member slots, then fold the
  // pass flags and CR mean serially in member order — bit-identical at any
  // thread count.
  verdict.members.resize(test_members.size());
  parallel_for(0, test_members.size(), [&](std::size_t i) {
    verdict.members[i] = evaluate_member(codec, test_members[i]);
  });
  fold_member_flags(verdict);

  if (run_bias) {
    // Arena-backed score buffer: warmed on the first verify, reused
    // allocation-free for every subsequent codec variant.
    const std::span<double> recon_scores =
        scratch_.get<double>(0, source_->stats().member_count());
    reconstructed_rmsz_into(codec, recon_scores, verdict.members);
    verdict.bias = bias_test(source_->stats().rmsz_distribution(), recon_scores,
                             thresholds_.bias_confidence);
    verdict.bias_pass = verdict.bias.pass;
    verdict.bias_evaluated = true;
  } else {
    verdict.bias_pass = true;  // not evaluated: do not veto
  }
  return verdict;
}

std::vector<std::size_t> PvtVerifier::pick_members(std::size_t count,
                                                   std::size_t member_count,
                                                   std::uint64_t seed) {
  CESM_REQUIRE(count <= member_count);
  Pcg32 rng(seed);
  std::vector<std::size_t> all(member_count);
  for (std::size_t i = 0; i < member_count; ++i) all[i] = i;
  // Partial Fisher-Yates.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j =
        i + rng.bounded(static_cast<std::uint32_t>(member_count - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace cesm::core
