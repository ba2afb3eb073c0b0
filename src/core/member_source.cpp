#include "core/member_source.h"

#include "util/error.h"

namespace cesm::core {

double MemberSource::encoded_cr(const comp::Codec& codec, std::size_t m,
                                comp::PlanStore* plans) const {
  const comp::Codec& inner = chunk_codec(codec);
  const std::uint64_t first_block = static_cast<std::uint64_t>(m) * chunk_count();
  std::vector<std::size_t> sizes;
  sizes.reserve(chunk_count());
  walk(m, [&](const Chunk& c) {
    const Bytes stream = plans != nullptr
                             ? plans->encode(inner, c.values, c.shape, first_block + c.index)
                             : inner.encode(c.values, c.shape);
    sizes.push_back(stream.size());
  });
  return member_cr(codec, sizes);
}

ResidentMembers::ResidentMembers(const EnsembleStats& stats)
    : MemberSource(stats), stats_(stats) {}

std::string ResidentMembers::variable() const { return stats_.member(0).name; }

std::size_t ResidentMembers::max_chunk_elems() const { return stats_.member(0).size(); }

void ResidentMembers::walk(std::size_t m, const ChunkFn& fn) const {
  CESM_REQUIRE(m < stats_.member_count());
  const climate::Field& field = stats_.member(m);
  fn(Chunk{0, 0, field.data, field.shape});
}

double ResidentMembers::member_cr(const comp::Codec&,
                                  std::span<const std::size_t> sizes) const {
  CESM_REQUIRE(sizes.size() == 1);
  return comp::compression_ratio(sizes[0], stats_.member(0).size());
}

}  // namespace cesm::core
