#pragma once
// Shared encode-prep plans for the variant sweep.
//
// The paper's methodology round-trips every variable through ~9 codec
// variants that differ only in a tuning knob (fpzip precision bits,
// ISABELA error bound, GRIB2 decimal scale). The knob-invariant stage of
// each family's encode — fpzip's ordered-map transform, ISABELA's
// per-window sort + spline fit, GRIB2's valid bitmap + range scan and
// per-scale wavelet lift — is recomputed from scratch for each variant on
// the direct path. PlanStore memoizes that stage per (prep_key, block):
// the first variant of a family to encode (or reconstruct) a block builds
// the plan, and every later variant with the same prep_key reuses it —
// the reconstruct-only bias sweep (Codec::reconstruct_into) shares one
// ISABELA sort + fit per member across ISA-0.1/0.5/1.0 this way.
//
// Contract (enforced by tests/compress/test_prep_parity.cpp and the
// bench_suite parity gate): a plan-driven encode is byte-identical to the
// direct encode, including which input-validation errors it throws. The
// store is therefore free to drop plans at any time — on LRU pressure, on
// a budget-charge rejection, or on a fault injected at the
// "comp.prep_plan" site — and fall back to the direct path without
// changing a single output byte.
//
// Memory accounting: plans are bounded by `cap_bytes` (LRU eviction) and,
// when a util::MemoryBudget is attached (the out-of-core path), every
// cached plan is charged to it. A charge that does not fit is not an
// error: the plan simply is not cached, so the CESM_MEM_MB guarantee
// holds with plan sharing enabled.
//
// Thread safety: all members are safe to call concurrently; the map is
// mutex-guarded and plan builds happen outside the lock (two threads may
// race to build the same plan; the loser's copy is dropped).

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "compress/codec.h"
#include "util/memory.h"

namespace cesm::comp {

/// The family plan for `data`, built on the spot by the rule every plan
/// user shares: null means "take the direct path" — an unplannable codec
/// (empty prep_key) or a plan-stage fault (the "comp.prep_plan" site);
/// input-validation errors (InvalidArgument) propagate, since the direct
/// path would throw them too.
[[nodiscard]] PrepPlanPtr build_plan(const Codec& codec, std::span<const float> data,
                                     const Shape& shape);

class PlanStore {
 public:
  /// `cap_bytes` bounds the resident plan bytes (0 disables caching
  /// entirely — every encode takes the direct path). `budget`, when
  /// non-null, is charged for every cached plan and released on eviction.
  explicit PlanStore(std::size_t cap_bytes, util::MemoryBudget* budget = nullptr);
  ~PlanStore();

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  /// Encode `data` through `codec`, reusing or building the family's prep
  /// plan for `block` (an opaque caller-chosen id: member index in-core,
  /// member * chunk_count + chunk out-of-core). Byte-identical to
  /// codec.encode(data, shape) in both output and thrown argument errors.
  [[nodiscard]] Bytes encode(const Codec& codec, std::span<const float> data,
                             const Shape& shape, std::uint64_t block);

  /// codec.reconstruct_into with the same plan encode() would use for
  /// `block`: bit-identical to decoding encode()'s stream into `out`.
  void reconstruct_into(const Codec& codec, std::span<const float> data,
                        const Shape& shape, std::uint64_t block, std::span<float> out);

  /// The family plan for `block`: cached, or built and cached. Null means
  /// "take the direct path" — planning disabled (cap 0), an unplannable
  /// codec, or a plan-stage fault. Input-validation errors propagate.
  [[nodiscard]] PrepPlanPtr plan_for(const Codec& codec, std::span<const float> data,
                                     const Shape& shape, std::uint64_t block);

  /// Drop every cached plan, releasing any budget charges.
  void clear();

  [[nodiscard]] std::uint64_t plans_built() const;
  [[nodiscard]] std::uint64_t plans_reused() const;
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  struct Entry {
    PrepPlanPtr plan;
    std::size_t bytes = 0;
    std::uint64_t last_use = 0;
  };

  [[nodiscard]] PrepPlanPtr lookup(const std::string& key);
  void insert(const std::string& key, const PrepPlanPtr& plan);
  /// Evict least-recently-used entries until `need` more bytes fit under
  /// the cap. Caller holds mu_. Returns false if `need` alone exceeds it.
  bool make_room(std::size_t need);

  const std::size_t cap_bytes_;
  util::MemoryBudget* budget_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::size_t resident_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t built_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace cesm::comp
