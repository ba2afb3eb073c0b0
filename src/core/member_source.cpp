#include "core/member_source.h"

namespace cesm::core {

BufferPool::Lease::Lease(BufferPool& pool) : pool_(pool) {
  {
    std::lock_guard<std::mutex> lock(pool_.mu_);
    if (!pool_.free_.empty()) {
      buf_ = std::move(pool_.free_.back());
      pool_.free_.pop_back();
    }
  }
  if (buf_.empty()) buf_.resize(pool_.elems_);
}

BufferPool::Lease::~Lease() {
  std::lock_guard<std::mutex> lock(pool_.mu_);
  pool_.free_.push_back(std::move(buf_));
}

ResidentMembers::ResidentMembers(const EnsembleStats& stats)
    : MemberSource(stats), stats_(stats), recon_(stats.member(0).size()) {}

std::string ResidentMembers::variable() const { return stats_.member(0).name; }

Bytes ResidentMembers::encode(const comp::Codec& codec, std::size_t m,
                              comp::PlanStore* plans) const {
  const climate::Field& original = stats_.member(m);
  return plans != nullptr ? plans->encode(codec, original.data, original.shape, m)
                          : codec.encode(original.data, original.shape);
}

double ResidentMembers::round_trip(const comp::Codec& codec, std::size_t m,
                                   comp::PlanStore* plans,
                                   const ChunkVisitor& visit) const {
  const std::vector<float>& original = stats_.member(m).data;
  const Bytes stream = encode(codec, m, plans);
  BufferPool::Lease recon(recon_);
  codec.decode_into(stream, recon.span());
  visit(0, original, recon.span());
  return comp::compression_ratio(stream.size(), original.size());
}

void ResidentMembers::reconstruct(const comp::Codec& codec, std::size_t m,
                                  comp::PlanStore* plans, const ChunkVisitor& visit) const {
  const climate::Field& original = stats_.member(m);
  BufferPool::Lease recon(recon_);
  if (plans != nullptr) {
    plans->reconstruct_into(codec, original.data, original.shape, m, recon.span());
  } else {
    codec.reconstruct_into(original.data, original.shape, nullptr, recon.span());
  }
  visit(0, original.data, recon.span());
}

double ResidentMembers::encoded_cr(const comp::Codec& codec, std::size_t m,
                                   comp::PlanStore* plans) const {
  return comp::compression_ratio(encode(codec, m, plans).size(), stats_.member(m).size());
}

}  // namespace cesm::core
