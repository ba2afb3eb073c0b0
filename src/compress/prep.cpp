#include "compress/prep.h"

#include <utility>

#include "util/failpoint.h"
#include "util/trace.h"

namespace cesm::comp {

PrepPlanPtr build_plan(const Codec& codec, std::span<const float> data, const Shape& shape) {
  if (codec.prep_key().empty()) return nullptr;
  try {
    CESM_FAILPOINT("comp.prep_plan");
    return codec.build_prep(data, shape);
  } catch (const InvalidArgument&) {
    // Exception parity: build_prep validates its input exactly like
    // encode() would, so the direct path is guaranteed to throw the
    // same error — propagate it rather than encoding twice.
    throw;
  } catch (const Error&) {
    // Injected plan-stage fault (or any other plan-only failure): the
    // sweep must not be poisoned — fall back to the direct path.
    trace::counter_add("prep.plan_faults", 1);
    return nullptr;
  }
}

PlanStore::PlanStore(std::size_t cap_bytes, util::MemoryBudget* budget)
    : cap_bytes_(cap_bytes), budget_(budget) {}

PlanStore::~PlanStore() { clear(); }

PrepPlanPtr PlanStore::plan_for(const Codec& codec, std::span<const float> data,
                               const Shape& shape, std::uint64_t block) {
  if (cap_bytes_ == 0) return nullptr;
  const std::string key = codec.prep_key();
  if (key.empty()) return nullptr;
  const std::string full = key + '#' + std::to_string(block);

  PrepPlanPtr plan = lookup(full);
  if (plan != nullptr) {
    trace::counter_add("prep.plan_reused", 1);
    return plan;
  }
  plan = build_plan(codec, data, shape);
  if (plan == nullptr) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++built_;
  }
  trace::counter_add("prep.plan_built", 1);
  insert(full, plan);
  return plan;
}

Bytes PlanStore::encode(const Codec& codec, std::span<const float> data,
                        const Shape& shape, std::uint64_t block) {
  const PrepPlanPtr plan = plan_for(codec, data, shape, block);
  return plan != nullptr ? codec.encode_with_prep(*plan, data, shape)
                         : codec.encode(data, shape);
}

void PlanStore::reconstruct_into(const Codec& codec, std::span<const float> data,
                                 const Shape& shape, std::uint64_t block,
                                 std::span<float> out) {
  const PrepPlanPtr plan = plan_for(codec, data, shape, block);
  codec.reconstruct_into(data, shape, plan.get(), out);
}

void PlanStore::clear() {
  std::size_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    released = resident_;
    map_.clear();
    resident_ = 0;
  }
  if (budget_ != nullptr && released > 0) budget_->release(released);
}

std::uint64_t PlanStore::plans_built() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

std::uint64_t PlanStore::plans_reused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reused_;
}

std::size_t PlanStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

PrepPlanPtr PlanStore::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  it->second.last_use = ++tick_;
  ++reused_;
  return it->second.plan;
}

bool PlanStore::make_room(std::size_t need) {
  if (need > cap_bytes_) return false;
  while (resident_ + need > cap_bytes_) {
    auto victim = map_.end();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (victim == map_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == map_.end()) return false;
    const std::size_t freed = victim->second.bytes;
    map_.erase(victim);
    resident_ -= freed;
    if (budget_ != nullptr) budget_->release(freed);
    trace::counter_add("prep.plan_evicted", 1);
  }
  return true;
}

void PlanStore::insert(const std::string& key, const PrepPlanPtr& plan) {
  const std::size_t bytes = plan->resident_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.count(key) != 0) return;  // lost a build race; keep the incumbent
  if (!make_room(bytes)) return;     // plan larger than the whole cap
  if (budget_ != nullptr) {
    try {
      budget_->charge("comp.prep_plan", bytes);
    } catch (const Error&) {
      // Out of budget headroom: stay uncached. The freshly built plan is
      // still used for the current encode, then dropped.
      trace::counter_add("prep.plan_overflow", 1);
      return;
    }
  }
  Entry& e = map_[key];
  e.plan = plan;
  e.bytes = bytes;
  e.last_use = ++tick_;
  resident_ += bytes;
}

}  // namespace cesm::comp
