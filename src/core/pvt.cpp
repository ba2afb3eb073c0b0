#include "core/pvt.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>

#include "stats/correlation.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

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

/// One codec of a member-major pass: where the lanes put its results, and
/// the lowest member at which it threw.
struct VariantSweep {
  const comp::Codec* codec = nullptr;
  const comp::Codec* chunk_codec = nullptr;
  std::size_t plan_slot = kNone;  ///< lane plan shared with same-key variants
  bool last_of_slot = false;      ///< the slot's plan is dropped after this one
  std::span<MemberEvaluation> evals;  ///< one per test slot
  std::span<double> scores;           ///< one per member; empty without bias

  std::atomic<std::size_t> failed_member{kNone};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu

  /// True once a member below `m` has failed: m cannot change the outcome.
  [[nodiscard]] bool settled_before(std::size_t m) const {
    return failed_member.load(std::memory_order_relaxed) < m;
  }
  void fail(std::size_t m, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (m < failed_member.load(std::memory_order_relaxed)) {
      failed_member.store(m, std::memory_order_relaxed);
      error = std::move(e);
    }
  }
};

/// A member a pass visits and its test slot (kNone: bias sweep only).
struct SweepMember {
  std::size_t member = 0;
  std::size_t test_slot = kNone;
};

/// The family plans of the (member, chunk) a lane is on, one per plan
/// slot: built on first use, dropped after the slot's last variant. A
/// test member takes its plans from the verifier's PlanStore when one is
/// attached; every other plan is built here by the store's rule and, out
/// of core, charged to the variable's budget (a plan that does not fit is
/// not built into the sweep: that chunk takes the direct path).
class LanePlans {
 public:
  ~LanePlans() { drop_all(); }

  void reset(std::size_t slots, util::MemoryBudget* budget) {
    drop_all();
    plans_.assign(slots, nullptr);
    bytes_.assign(slots, 0);
    tried_.assign(slots, 0);
    budget_ = budget;
  }

  const comp::PrepPlan* get(std::size_t slot, const comp::Codec& codec,
                            const MemberSource::Chunk& chunk, comp::PlanStore* store,
                            std::uint64_t block) {
    if (slot == kNone) return nullptr;
    if (tried_[slot] == 0) {
      tried_[slot] = 1;
      plans_[slot] = store != nullptr
                         ? store->plan_for(codec, chunk.values, chunk.shape, block)
                         : build(slot, codec, chunk);
    }
    return plans_[slot].get();
  }

  void drop(std::size_t slot) {
    plans_[slot].reset();
    tried_[slot] = 0;
    if (bytes_[slot] != 0) {
      budget_->release(bytes_[slot]);
      bytes_[slot] = 0;
    }
  }

  void drop_all() {
    for (std::size_t s = 0; s < plans_.size(); ++s) drop(s);
  }

 private:
  comp::PrepPlanPtr build(std::size_t slot, const comp::Codec& codec,
                          const MemberSource::Chunk& chunk) {
    comp::PrepPlanPtr plan = comp::build_plan(codec, chunk.values, chunk.shape);
    if (plan == nullptr || budget_ == nullptr) return plan;
    try {
      budget_->charge("pvt.lane_plan", plan->resident_bytes());
    } catch (const Error&) {
      trace::counter_add("prep.plan_overflow", 1);
      return nullptr;
    }
    bytes_[slot] = plan->resident_bytes();
    return plan;
  }

  std::vector<comp::PrepPlanPtr> plans_;
  std::vector<std::size_t> bytes_;
  std::vector<std::uint8_t> tried_;
  util::MemoryBudget* budget_ = nullptr;
};

/// Scratch one lane reuses for every member it takes.
struct SweepLane {
  std::vector<float> recon;                              ///< one chunk's output
  std::vector<double> mu;                                ///< the chunk's leave-one-out
  std::vector<double> var;                               ///< mean and variance
  std::vector<stats::kernels::LooZScoreStream> zscores;  ///< one per variant
  std::vector<std::uint8_t> live;                        ///< per variant
  LanePlans plans;
};

}  // namespace

/// The verifier's lanes: created on demand, one per concurrently running
/// member, and recycled for its lifetime.
struct PvtVerifier::Lanes {
  std::mutex mu;
  std::vector<std::unique_ptr<SweepLane>> free;  // guarded by mu

  /// Returns its lane to the pool on destruction.
  class Lease {
   public:
    explicit Lease(Lanes& pool) : pool_(pool) {
      {
        std::lock_guard<std::mutex> lock(pool_.mu);
        if (!pool_.free.empty()) {
          lane_ = std::move(pool_.free.back());
          pool_.free.pop_back();
        }
      }
      if (lane_ == nullptr) {
        trace::counter_add("pvt.sweep_lanes", 1);
        lane_ = std::make_unique<SweepLane>();
      }
    }
    ~Lease() {
      std::lock_guard<std::mutex> lock(pool_.mu);
      pool_.free.push_back(std::move(lane_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SweepLane& operator*() { return *lane_; }

   private:
    Lanes& pool_;
    std::unique_ptr<SweepLane> lane_;
  };
};

namespace {

/// One member-major pass over a variable (see pvt.h).
class MemberMajorPass {
 public:
  MemberMajorPass(const MemberSource& source, comp::PlanStore* store,
                  const PvtThresholds& thresholds, std::span<VariantSweep> variants,
                  bool run_bias)
      : src_(source),
        ens_(source.stats()),
        store_(store),
        thresholds_(thresholds),
        variants_(variants),
        run_bias_(run_bias),
        loo_(ens_.sum().size(), ens_.mask(), static_cast<double>(ens_.member_count()),
             kDegenerateSpreadRelTol) {
    CESM_REQUIRE(!variants_.empty());
    // Variants whose chunk codecs share a prep key share a lane plan, kept
    // until the last of them has run on the chunk.
    std::vector<std::string> keys;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      VariantSweep& vs = variants_[v];
      vs.chunk_codec = &src_.chunk_codec(*vs.codec);
      const std::string key = vs.chunk_codec->prep_key();
      if (key.empty()) continue;
      const auto it = std::find(keys.begin(), keys.end(), key);
      vs.plan_slot = static_cast<std::size_t>(it - keys.begin());
      if (it == keys.end()) keys.push_back(key);
    }
    slots_ = keys.size();
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      const std::size_t slot = variants_[v].plan_slot;
      variants_[v].last_of_slot =
          slot != kNone && std::none_of(variants_.begin() + static_cast<std::ptrdiff_t>(v) + 1,
                                        variants_.end(),
                                        [&](const VariantSweep& w) { return w.plan_slot == slot; });
    }
  }

  /// Each member writes only its own slots, so the pass is bit-identical
  /// at any worker count.
  void run(PvtVerifier::Lanes& lanes, std::span<const SweepMember> members) {
    parallel_for(0, members.size(), [&](std::size_t i) {
      PvtVerifier::Lanes::Lease lease(lanes);
      run_member(*lease, members[i]);
    });
  }

 private:
  void prepare(SweepLane& lane) const {
    const std::size_t n = src_.max_chunk_elems();
    lane.recon.resize(n);
    lane.mu.resize(n);
    lane.var.resize(n);
    lane.zscores.resize(variants_.size());
    lane.live.resize(variants_.size());
    lane.plans.reset(slots_, src_.plan_budget());
  }

  void run_member(SweepLane& lane, const SweepMember& sm) {
    prepare(lane);
    // Plans outlive no member, also when the walk itself throws.
    struct DropPlans {
      LanePlans& plans;
      ~DropPlans() { plans.drop_all(); }
    } drop_plans{lane.plans};
    const std::size_t m = sm.member;
    const bool test = sm.test_slot != kNone;
    const std::size_t count = variants_.size();
    const bool masked = !ens_.mask().empty();
    // A test member is round-tripped: its error norms, co-moments and
    // chunk stream sizes ride along with the z-scores.
    std::vector<stats::kernels::ErrorNormStream> err;
    std::vector<stats::kernels::CoMomentStream> co;
    std::vector<std::vector<std::size_t>> sizes;
    if (test) {
      err.assign(count, stats::kernels::ErrorNormStream(masked));
      co.assign(count, stats::kernels::CoMomentStream(masked));
      sizes.assign(count, {});
    }
    for (std::size_t v = 0; v < count; ++v) {
      lane.zscores[v].reset();
      lane.live[v] = variants_[v].settled_before(m) ? 0 : 1;
    }

    const std::uint64_t first_block = static_cast<std::uint64_t>(m) * src_.chunk_count();
    comp::PlanStore* store = test ? store_ : nullptr;
    src_.walk(m, [&](const MemberSource::Chunk& c) {
      const std::size_t len = c.values.size();
      const std::span<double> mu = std::span(lane.mu).first(len);
      const std::span<double> var = std::span(lane.var).first(len);
      loo_.prepare(c.offset, c.values, ens_.sum().subspan(c.offset, len),
                   ens_.sum_sq().subspan(c.offset, len), mu, var);
      const std::span<float> out = std::span(lane.recon).first(len);
      const std::span<const std::uint8_t> mask = mask_slice(ens_, c.offset, len);
      for (std::size_t v = 0; v < count; ++v) {
        VariantSweep& vs = variants_[v];
        if (lane.live[v] != 0 && vs.settled_before(m)) lane.live[v] = 0;
        if (lane.live[v] != 0) {
          try {
            const comp::Codec& codec = *vs.chunk_codec;
            const comp::PrepPlan* plan =
                lane.plans.get(vs.plan_slot, codec, c, store, first_block + c.index);
            if (test) {
              const Bytes stream = plan != nullptr
                                       ? codec.encode_with_prep(*plan, c.values, c.shape)
                                       : codec.encode(c.values, c.shape);
              sizes[v].push_back(stream.size());
              codec.decode_into(stream, out);
              err[v].feed(c.values, out, mask);
              co[v].feed(c.values, out, mask);
            } else {
              codec.reconstruct_into(c.values, c.shape, plan, out);
            }
            lane.zscores[v].feed(loo_, c.offset, out, mu, var);
          } catch (...) {
            vs.fail(m, std::current_exception());
            lane.live[v] = 0;
          }
        }
        if (vs.last_of_slot) lane.plans.drop(vs.plan_slot);
      }
    });

    std::uint64_t scored = 0;
    for (std::size_t v = 0; v < count; ++v) {
      if (lane.live[v] == 0) continue;
      VariantSweep& vs = variants_[v];
      const double rmsz = rmsz_from_accum(lane.zscores[v].finish());
      ++scored;
      if (test) {
        const stats::Summary& s = ens_.member_summary(m);
        const ErrorMetrics metrics = error_metrics_from(
            err[v].finish(), s.range(), std::max(std::fabs(s.min), std::fabs(s.max)),
            stats::pearson_from_accum(co[v].finish()));
        vs.evals[sm.test_slot] = finish_member_evaluation(
            m, src_.member_cr(*vs.codec, sizes[v]), metrics, ens_.rmsz(m), rmsz,
            ens_.rmsz_range(), ens_.enmax_range(), thresholds_);
      }
      if (!vs.scores.empty()) vs.scores[m] = rmsz;
    }
    if (test) {
      trace::counter_add("pvt.member_roundtrips", scored);
      if (run_bias_) trace::counter_add("pvt.bias_reused", scored);
    } else {
      trace::counter_add("pvt.member_reconstructs", scored);
    }
  }

  const MemberSource& src_;
  const SufficientStats& ens_;
  comp::PlanStore* store_;
  const PvtThresholds& thresholds_;
  std::span<VariantSweep> variants_;
  bool run_bias_;
  stats::kernels::LeaveOneOut loo_;
  std::size_t slots_ = 0;
};

/// Rethrow a variant's error unless it is a codec failure: argument
/// errors are caller bugs, and anything not a cesm::Error is not ours to
/// absorb.
void rethrow_unless_codec_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error&) {
  }
}

}  // namespace

PvtVerifier::PvtVerifier(const EnsembleStats& stats, PvtThresholds thresholds)
    : owned_(std::make_unique<ResidentMembers>(stats)),
      source_(owned_.get()),
      thresholds_(thresholds),
      lanes_(std::make_unique<Lanes>()) {}

PvtVerifier::PvtVerifier(const MemberSource& source, PvtThresholds thresholds)
    : source_(&source), thresholds_(thresholds), lanes_(std::make_unique<Lanes>()) {}

PvtVerifier::~PvtVerifier() = default;

MemberEvaluation PvtVerifier::evaluate_member(const comp::Codec& codec,
                                              std::size_t member) const {
  CESM_REQUIRE(member < source_->stats().member_count());
  MemberEvaluation eval;
  VariantSweep sweep;
  sweep.codec = &codec;
  sweep.evals = std::span(&eval, 1);
  const SweepMember members[] = {{member, 0}};
  MemberMajorPass(*source_, plans_, thresholds_, std::span(&sweep, 1), /*run_bias=*/false)
      .run(*lanes_, members);
  if (sweep.error) std::rethrow_exception(sweep.error);
  return eval;
}

std::vector<PvtVerifier::VariantOutcome> PvtVerifier::verify_variants(
    std::span<const comp::Codec* const> codecs, std::span<const std::size_t> test_members,
    bool run_bias) const {
  CESM_REQUIRE(!test_members.empty());
  const SufficientStats& ens = source_->stats();
  const std::size_t m_count = ens.member_count();
  for (const std::size_t m : test_members) CESM_REQUIRE(m < m_count);
  // Nothing to score (every variant was settled before the pass): no
  // member is walked.
  if (codecs.empty()) return {};
  trace::Span span("pvt.verify");

  // Arena slots: 0 the members visited, 1 each member's test slot, then
  // one score array per codec. Warm after the first call.
  const std::span<std::size_t> test_slot = scratch_.get<std::size_t>(1, m_count);
  std::fill(test_slot.begin(), test_slot.end(), kNone);
  for (std::size_t i = 0; i < test_members.size(); ++i) {
    if (test_slot[test_members[i]] == kNone) test_slot[test_members[i]] = i;
  }
  const std::span<SweepMember> members =
      scratch_.get<SweepMember>(0, run_bias ? m_count : test_members.size());
  std::size_t visited = 0;
  for (std::size_t m = 0; m < m_count; ++m) {
    if (run_bias || test_slot[m] != kNone) members[visited++] = {m, test_slot[m]};
  }

  std::vector<VariantOutcome> out(codecs.size());
  std::vector<VariantSweep> sweeps(codecs.size());
  for (std::size_t v = 0; v < codecs.size(); ++v) {
    out[v].verdict.variable = source_->variable();
    out[v].verdict.codec = codecs[v]->name();
    out[v].verdict.members.resize(test_members.size());
    sweeps[v].codec = codecs[v];
    sweeps[v].evals = out[v].verdict.members;
    if (run_bias) sweeps[v].scores = scratch_.get<double>(2 + v, m_count);
  }
  {
    std::optional<trace::Span> sweep_span;
    if (run_bias) sweep_span.emplace("pvt.bias_sweep");
    MemberMajorPass(*source_, plans_, thresholds_, sweeps, run_bias)
        .run(*lanes_, members.first(visited));
  }

  for (std::size_t v = 0; v < codecs.size(); ++v) {
    VariableVerdict& verdict = out[v].verdict;
    if (sweeps[v].error) {
      rethrow_unless_codec_error(sweeps[v].error);
      out[v].error = sweeps[v].error;
      verdict.members.clear();
      continue;
    }
    // A member drawn twice was evaluated once.
    for (std::size_t i = 0; i < test_members.size(); ++i) {
      verdict.members[i] = verdict.members[test_slot[test_members[i]]];
    }
    fold_member_flags(verdict);
    if (run_bias) {
      verdict.bias =
          bias_test(ens.rmsz_distribution(), sweeps[v].scores, thresholds_.bias_confidence);
      verdict.bias_pass = verdict.bias.pass;
      verdict.bias_evaluated = true;
    } else {
      verdict.bias_pass = true;  // not evaluated: do not veto
    }
  }
  return out;
}

VariableVerdict PvtVerifier::verify(const comp::Codec& codec,
                                    std::span<const std::size_t> test_members,
                                    bool run_bias) const {
  const comp::Codec* const codecs[] = {&codec};
  std::vector<VariantOutcome> outcome = verify_variants(codecs, test_members, run_bias);
  if (outcome.front().error) std::rethrow_exception(outcome.front().error);
  return std::move(outcome.front().verdict);
}

std::vector<double> PvtVerifier::reconstructed_rmsz(const comp::Codec& codec) const {
  const std::size_t m_count = source_->stats().member_count();
  std::vector<double> scores(m_count);
  std::vector<SweepMember> members(m_count);
  for (std::size_t m = 0; m < m_count; ++m) members[m].member = m;
  VariantSweep sweep;
  sweep.codec = &codec;
  sweep.scores = scores;
  {
    trace::Span span("pvt.bias_sweep");
    MemberMajorPass(*source_, plans_, thresholds_, std::span(&sweep, 1), /*run_bias=*/true)
        .run(*lanes_, members);
  }
  if (sweep.error) std::rethrow_exception(sweep.error);
  return scores;
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
