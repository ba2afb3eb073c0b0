#include "core/rmsz.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/kernels.h"
#include "util/error.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

namespace {

/// Resident members as the build reads them: pass 1 takes views of fixed
/// point slices, pass 2 the whole field as one chunk. No values are copied.
class ResidentChunks final : public MemberChunks {
 public:
  explicit ResidentChunks(const std::vector<climate::Field>& members) : members_(members) {
    const std::size_t n = members_[0].size();
    for (const climate::Field& f : members_) {
      CESM_REQUIRE(f.size() == n);
      // One fill value for the ensemble: the first one declared. A member
      // declaring none is checked against it like any other.
      if (!fill_) fill_ = f.fill;
      CESM_REQUIRE(!f.fill || *f.fill == *fill_);
    }
    // The slice width is a fixed multiple of the kernel block (never
    // derived from the worker count), so the decomposition is
    // reproducible and the per-block mask hoisting stays aligned.
    constexpr std::size_t kPointGrain = 16 * stats::kernels::kBlock;
    for (std::size_t lo = 0; lo < n; lo += kPointGrain) offsets_.push_back(lo);
    offsets_.push_back(n);
  }

  [[nodiscard]] std::size_t member_count() const override { return members_.size(); }
  [[nodiscard]] std::span<const std::size_t> offsets() const override { return offsets_; }
  [[nodiscard]] std::optional<float> fill() const override { return fill_; }
  [[nodiscard]] std::size_t buffer_elems() const override { return 0; }

  [[nodiscard]] std::span<const float> chunk(std::uint32_t m, std::size_t c,
                                             std::span<float>) const override {
    return std::span<const float>(members_[m].data)
        .subspan(offsets_[c], offsets_[c + 1] - offsets_[c]);
  }
  void walk(std::uint32_t m, std::span<float>, std::span<float>,
            const Visit& visit) const override {
    visit(0, members_[m].data);
  }

 private:
  const std::vector<climate::Field>& members_;
  std::optional<float> fill_;
  std::vector<std::size_t> offsets_;
};

/// Member 0 defines the validity of every point (0 where it holds the fill
/// value); every later member must agree point by point, or sum/sum² would
/// silently absorb fill values.
void derive_or_check_mask(std::span<const float> x, float fill, bool first,
                          std::span<std::uint8_t> mask) {
  if (first) {
    for (std::size_t i = 0; i < x.size(); ++i) mask[i] = x[i] == fill ? 0 : 1;
    return;
  }
  bool mismatch = false;
  for (std::size_t i = 0; i < x.size(); ++i) mismatch |= (x[i] == fill) != (mask[i] == 0);
  CESM_REQUIRE(!mismatch);
}

SufficientStats build_resident(const std::vector<climate::Field>& members) {
  trace::Span span("stats.build");
  CESM_REQUIRE(members.size() >= 3);
  return SufficientStats::build(ResidentChunks(members));
}

}  // namespace

SufficientStats SufficientStats::build(const MemberChunks& src, util::MemoryBudget* budget) {
  const std::size_t m_count = src.member_count();
  CESM_REQUIRE(m_count >= 3);
  const std::span<const std::size_t> offsets = src.offsets();
  const std::size_t chunks = offsets.size() - 1;
  const std::size_t n = offsets.back();
  const std::optional<float> fill = src.fill();
  const std::size_t buf_elems = src.buffer_elems();
  const std::uint64_t lane_bytes =
      static_cast<std::uint64_t>(parallel_lanes()) * buf_elems * sizeof(float);
  // Charges carry the out-of-core labels: a spill-fed build is the only
  // one run against a budget.
  const auto charge = [&](const char* label, std::uint64_t bytes) {
    if (budget != nullptr) budget->charge(label, bytes);
  };
  const auto release = [&](std::uint64_t bytes) {
    if (budget != nullptr) budget->release(bytes);
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();

  // Resident per-point arrays: sum + sum_sq (2 x 8) + the four extreme
  // planes (4 x 4) + the two arg planes (2 x 4) = 40 bytes per point,
  // plus the mask byte while it exists.
  charge("ooc.point_stats", static_cast<std::uint64_t>(n) * (40 + (fill ? 1 : 0)));
  SufficientStats s;
  s.sum_.assign(n, 0.0);
  s.sum_sq_.assign(n, 0.0);
  s.max1_.assign(n, -kInf);
  s.max2_.assign(n, -kInf);
  s.min1_.assign(n, kInf);
  s.min2_.assign(n, kInf);
  s.argmax_.assign(n, 0);
  s.argmin_.assign(n, 0);
  if (fill) s.mask_.assign(n, 1);

  // Pass 1 — parallel over chunks, members in order within each. Per point
  // the arithmetic and its order are exactly a serial member loop's, so
  // results are bit-identical at every thread count and chunk partition.
  charge("ooc.pass1_buffers", lane_bytes);
  parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t lo = offsets[c];
    const std::size_t len = offsets[c + 1] - lo;
    std::vector<float> buf(buf_elems);
    const std::span<std::uint8_t> mask =
        fill ? std::span<std::uint8_t>(s.mask_).subspan(lo, len) : std::span<std::uint8_t>{};
    for (std::uint32_t m = 0; m < m_count; ++m) {
      const std::span<const float> x = src.chunk(m, c, buf);
      if (fill) derive_or_check_mask(x, *fill, m == 0, mask);
      stats::kernels::accumulate_sum_sq(x, mask, std::span<double>(s.sum_).subspan(lo, len),
                                        std::span<double>(s.sum_sq_).subspan(lo, len));
      stats::kernels::update_extremes(x, mask, m, std::span<float>(s.max1_).subspan(lo, len),
                                      std::span<float>(s.max2_).subspan(lo, len),
                                      std::span<std::uint32_t>(s.argmax_).subspan(lo, len),
                                      std::span<float>(s.min1_).subspan(lo, len),
                                      std::span<float>(s.min2_).subspan(lo, len),
                                      std::span<std::uint32_t>(s.argmin_).subspan(lo, len));
    }
  });
  release(lane_bytes);

  // A fill value that never occurs is the same as no fill at all, so
  // downstream kernels take the dense path.
  s.valid_points_ = stats::kernels::count_valid(s.mask_, n);
  if (fill && s.valid_points_ == n) {
    s.mask_.clear();
    s.mask_.shrink_to_fit();
    release(n);
  }
  CESM_REQUIRE(s.valid_points_ > 0);

  // Pass 2 — parallel over members: one walk feeds the block-realigning
  // moment stream and the leave-one-out z-score stream (bit-equal to the
  // one-shot kernels on the whole array) and folds the E_nmax distance.
  // The member's own μ/σ² are derived a kernel block at a time.
  s.summaries_.resize(m_count);
  s.rmsz_dist_.resize(m_count);
  s.enmax_dist_.resize(m_count);
  charge("ooc.member_stats",
         static_cast<std::uint64_t>(m_count) * (sizeof(stats::Summary) + 4 * sizeof(double)));
  charge("ooc.pass2_buffers", 2 * lane_bytes);
  const bool masked = !s.mask_.empty();
  const stats::kernels::LeaveOneOut loo(n, s.mask_, static_cast<double>(m_count),
                                        kDegenerateSpreadRelTol);
  parallel_for(0, m_count, [&](std::size_t m) {
    std::vector<float> buf0(buf_elems);
    std::vector<float> buf1(buf_elems);
    std::vector<double> mu(stats::kernels::kBlock);
    std::vector<double> var(stats::kernels::kBlock);
    stats::kernels::MomentStream mom(masked);
    stats::kernels::LooZScoreStream zs;
    double worst = 0.0;
    src.walk(static_cast<std::uint32_t>(m), buf0, buf1,
             [&](std::size_t lo, std::span<const float> x) {
               const std::size_t len = x.size();
               mom.feed(x, masked ? std::span<const std::uint8_t>(s.mask_).subspan(lo, len)
                                  : std::span<const std::uint8_t>{});
               for (std::size_t i = 0; i < len; i += stats::kernels::kBlock) {
                 const std::size_t take = std::min(stats::kernels::kBlock, len - i);
                 const std::span<const float> xi = x.subspan(i, take);
                 const std::span<double> mi = std::span(mu).first(take);
                 const std::span<double> vi = std::span(var).first(take);
                 loo.prepare(lo + i, xi, std::span<const double>(s.sum_).subspan(lo + i, take),
                             std::span<const double>(s.sum_sq_).subspan(lo + i, take), mi, vi);
                 zs.feed(loo, lo + i, xi, mi, vi);
               }
               worst = std::max(worst, s.max_distance(static_cast<std::uint32_t>(m), lo, x));
             });
    const stats::kernels::MomentAccum a = mom.finish();
    s.summaries_[m] = stats::summary_from(a);
    const double range = a.max - a.min;
    s.rmsz_dist_[m] = rmsz_from_accum(zs.finish());
    s.enmax_dist_[m] = range > 0.0 ? worst / range : worst;
  });
  release(2 * lane_bytes);

  s.finalize_ranges();
  return s;
}

double SufficientStats::max_distance(std::uint32_t m, std::size_t lo,
                                     std::span<const float> x) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t p = lo + i;
    if (!mask_.empty() && mask_[p] == 0) continue;
    const double v = x[i];
    const double hi = argmax_[p] == m ? max2_[p] : max1_[p];
    const double lo_v = argmin_[p] == m ? min2_[p] : min1_[p];
    worst = std::max(worst, std::max(hi - v, v - lo_v));
  }
  return worst;
}

void SufficientStats::finalize_ranges() {
  const auto [rlo, rhi] = std::minmax_element(rmsz_dist_.begin(), rmsz_dist_.end());
  rmsz_min_ = *rlo;
  rmsz_max_ = *rhi;
  const auto [elo, ehi] = std::minmax_element(enmax_dist_.begin(), enmax_dist_.end());
  enmax_range_ = *ehi - *elo;
}

std::vector<double> SufficientStats::global_means() const {
  std::vector<double> means(summaries_.size());
  for (std::size_t m = 0; m < means.size(); ++m) means[m] = summaries_[m].mean;
  return means;
}

EnsembleStats::EnsembleStats(std::vector<climate::Field> members)
    : EnsembleStats(build_resident(members), std::move(members)) {}

double EnsembleStats::rmsz_of(std::size_t m, std::span<const float> data) const {
  CESM_REQUIRE(m < members_.size());
  CESM_REQUIRE(data.size() == members_[0].size());

  // Sub-ensemble {E \ m} statistics via leave-one-out update of the
  // per-point sufficient statistics. The value removed is the *original*
  // member m, even when scoring reconstructed data in its place. Points
  // with degenerate spread — below the float32 representation noise of
  // the mean (e.g. a saturated cloud-fraction point identical across
  // members) — are skipped; see kDegenerateSpreadRelTol.
  const stats::kernels::ZScoreAccum acc = stats::kernels::zscore_sums(
      data, members_[m].data, sum(), sum_sq(), mask(),
      static_cast<double>(members_.size()), kDegenerateSpreadRelTol);
  return rmsz_from_accum(acc);
}

namespace {

// Layout version of the EnsembleStats snapshot itself (independent of the
// disk-cache container version): bump on any change to the field set or
// their order below, so stale snapshots deserialize as FormatError and the
// cache regenerates them instead of misreading bytes. Bump kKeySchemaVersion
// in ensemble_cache.cpp alongside it.
constexpr std::uint32_t kStatsFormatVersion = 2;

template <typename T>
void write_array(ByteWriter& w, const std::vector<T>& v) {
  w.u64(v.size());
  if constexpr (sizeof(T) == 1) {
    w.raw(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
  } else if constexpr (std::is_same_v<T, float>) {
    w.f32_array(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64_array(v);
  } else {
    w.u32_array(v);
  }
}

template <typename T>
std::vector<T> read_array(ByteReader& r) {
  const std::uint64_t n = r.u64();
  // An adversarially large count would throw in need() anyway, but check
  // against the remaining bytes first so we never attempt the allocation.
  if (n > r.remaining() / sizeof(T)) throw FormatError("array length overruns stream");
  std::vector<T> v(static_cast<std::size_t>(n));
  if constexpr (sizeof(T) == 1) {
    const auto src = r.raw(v.size());
    std::copy(src.begin(), src.end(), v.begin());
  } else if constexpr (std::is_same_v<T, float>) {
    r.f32_array(v);
  } else if constexpr (std::is_same_v<T, double>) {
    r.f64_array(v);
  } else {
    r.u32_array(v);
  }
  return v;
}

/// Bytes one serialized stats::Summary occupies.
constexpr std::size_t kSummaryBytes = 4 * sizeof(double) + sizeof(std::uint64_t);

}  // namespace

void SufficientStats::serialize(ByteWriter& w) const {
  write_array(w, mask_);
  w.u64(valid_points_);
  write_array(w, sum_);
  write_array(w, sum_sq_);
  write_array(w, max1_);
  write_array(w, max2_);
  write_array(w, min1_);
  write_array(w, min2_);
  write_array(w, argmax_);
  write_array(w, argmin_);
  write_array(w, rmsz_dist_);
  write_array(w, enmax_dist_);
  w.u64(summaries_.size());
  for (const stats::Summary& sm : summaries_) {
    w.f64(sm.min);
    w.f64(sm.max);
    w.f64(sm.mean);
    w.f64(sm.stddev);
    w.u64(sm.count);
  }
}

SufficientStats SufficientStats::deserialize(ByteReader& r, std::size_t points,
                                             std::size_t members) {
  SufficientStats s;
  s.mask_ = read_array<std::uint8_t>(r);
  if (!s.mask_.empty() && s.mask_.size() != points) {
    throw FormatError("EnsembleStats mask size mismatch");
  }
  s.valid_points_ = static_cast<std::size_t>(r.u64());
  s.sum_ = read_array<double>(r);
  s.sum_sq_ = read_array<double>(r);
  s.max1_ = read_array<float>(r);
  s.max2_ = read_array<float>(r);
  s.min1_ = read_array<float>(r);
  s.min2_ = read_array<float>(r);
  s.argmax_ = read_array<std::uint32_t>(r);
  s.argmin_ = read_array<std::uint32_t>(r);
  for (std::size_t len : {s.sum_.size(), s.sum_sq_.size(), s.max1_.size(),
                          s.max2_.size(), s.min1_.size(), s.min2_.size(),
                          s.argmax_.size(), s.argmin_.size()}) {
    if (len != points) throw FormatError("EnsembleStats point-array size mismatch");
  }
  s.rmsz_dist_ = read_array<double>(r);
  s.enmax_dist_ = read_array<double>(r);
  const std::uint64_t summaries = r.u64();
  if (s.rmsz_dist_.size() != members || s.enmax_dist_.size() != members ||
      summaries != members || members > r.remaining() / kSummaryBytes) {
    throw FormatError("EnsembleStats member-array size mismatch");
  }
  s.summaries_.resize(members);
  for (stats::Summary& sm : s.summaries_) {
    sm.min = r.f64();
    sm.max = r.f64();
    sm.mean = r.f64();
    sm.stddev = r.f64();
    sm.count = static_cast<std::size_t>(r.u64());
  }
  if (s.valid_points_ == 0 || s.valid_points_ > points) {
    throw FormatError("EnsembleStats valid point count implausible");
  }
  s.finalize_ranges();
  return s;
}

std::size_t SufficientStats::memory_bytes() const {
  std::size_t bytes = mask_.size();
  bytes += (sum_.size() + sum_sq_.size()) * sizeof(double);
  bytes += (max1_.size() + max2_.size() + min1_.size() + min2_.size()) * sizeof(float);
  bytes += (argmax_.size() + argmin_.size()) * sizeof(std::uint32_t);
  bytes += summaries_.size() * sizeof(stats::Summary);
  bytes += (rmsz_dist_.size() + enmax_dist_.size()) * sizeof(double);
  return bytes;
}

void EnsembleStats::serialize(ByteWriter& w) const {
  w.u32(kStatsFormatVersion);

  // Members: name/shape/fill are identical across members by construction,
  // so store them once.
  const climate::Field& proto = members_[0];
  w.str(proto.name);
  w.u64(proto.shape.dims.size());
  for (std::size_t d : proto.shape.dims) w.u64(d);
  w.u8(proto.fill.has_value() ? 1 : 0);
  if (proto.fill) w.f32(*proto.fill);

  w.u64(members_.size());
  for (const climate::Field& f : members_) write_array(w, f.data);
  SufficientStats::serialize(w);
}

EnsembleStats EnsembleStats::deserialize(ByteReader& r) {
  if (r.u32() != kStatsFormatVersion) {
    throw FormatError("EnsembleStats snapshot version mismatch");
  }

  const std::string name = r.str();
  comp::Shape shape;
  const std::uint64_t rank = r.u64();
  if (rank == 0 || rank > 8) throw FormatError("EnsembleStats snapshot rank implausible");
  // Same rule as wire::read_header and the CNK1 reader: every dimension
  // and the running product stay within kMaxDecodeElements, so a zero or
  // wrapping dimension cannot build fields whose dims disagree with their
  // data.
  std::uint64_t count = 1;
  for (std::uint64_t i = 0; i < rank; ++i) {
    const std::uint64_t dim = r.u64();
    if (dim == 0 || dim > comp::wire::kMaxDecodeElements ||
        count > comp::wire::kMaxDecodeElements / dim) {
      throw FormatError("EnsembleStats snapshot dimension implausible");
    }
    count *= dim;
    shape.dims.push_back(static_cast<std::size_t>(dim));
  }
  std::optional<float> fill;
  if (r.u8() != 0) fill = r.f32();

  const std::uint64_t m_count = r.u64();
  if (m_count < 3 || m_count > (1u << 20)) {
    throw FormatError("EnsembleStats snapshot member count implausible");
  }
  const std::size_t n = shape.count();
  std::vector<climate::Field> members;
  members.reserve(static_cast<std::size_t>(m_count));
  for (std::uint64_t m = 0; m < m_count; ++m) {
    climate::Field f{name, shape, read_array<float>(r), fill};
    if (f.data.size() != n) throw FormatError("EnsembleStats member size mismatch");
    members.push_back(std::move(f));
  }
  SufficientStats stats =
      SufficientStats::deserialize(r, n, static_cast<std::size_t>(m_count));
  return EnsembleStats(std::move(stats), std::move(members));
}

std::size_t EnsembleStats::memory_bytes() const {
  const std::size_t n = members_.empty() ? 0 : members_[0].size();
  return members_.size() * n * sizeof(float) + SufficientStats::memory_bytes();
}

}  // namespace cesm::core
