// The member-major verification pass (core/pvt.h): every member is walked
// once and scored under every codec. These tests pin its scores to an
// independent oracle — the one-shot z-score kernel over a whole-field round
// trip (EnsembleStats::rmsz_of) — on resident and spilled members, at two
// chunk partitions and two worker counts, and pin how a codec that throws
// at some members, or every variant failing before the pass, is settled.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compress/chunked.h"
#include "compress/fpz/fpz.h"
#include "compress/variants.h"
#include "core/ooc.h"
#include "core/pvt.h"
#include "core/suite.h"
#include "ncio/chunkstore.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

/// 4321 columns: a 3-D variable's row chunks (chunk_elems 1024) cut the
/// kernel's 4096-point blocks off their lane groups of four, and the fill
/// variable's 1-D chunks end in a short tail.
climate::EnsembleSpec member_major_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{29, 149, 3};
  spec.members = 17;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Encodes through `inner` but throws for the members whose first value
/// it was armed with, so a fault lands on chosen members whatever the
/// schedule. Reconstruction is the base round trip, so it throws too.
class FaultyCodec final : public comp::Codec {
 public:
  FaultyCodec(comp::CodecPtr inner, std::map<std::uint32_t, std::size_t> poison)
      : inner_(std::move(inner)), poison_(std::move(poison)) {}

  [[nodiscard]] std::string name() const override { return "faulty"; }
  [[nodiscard]] std::string family() const override { return inner_->family(); }
  [[nodiscard]] bool is_lossless() const override { return false; }
  [[nodiscard]] comp::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] Bytes encode(std::span<const float> data,
                             const comp::Shape& shape) const override {
    if (const auto it = poison_.find(std::bit_cast<std::uint32_t>(data[0]));
        it != poison_.end()) {
      throw Error("injected codec fault at member " + std::to_string(it->second));
    }
    return inner_->encode(data, shape);
  }
  [[nodiscard]] std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    return inner_->decode(stream);
  }

 private:
  comp::CodecPtr inner_;
  std::map<std::uint32_t, std::size_t> poison_;
};

class PvtTestMemberMajor : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ensemble_ = new climate::EnsembleGenerator(member_major_spec());
  }
  static void TearDownTestSuite() {
    delete ensemble_;
    ensemble_ = nullptr;
  }

  /// One variable's members, resident and spilled at `chunk_elems`.
  struct Sources {
    EnsembleStats resident;
    util::MemoryBudget budget;
    std::unique_ptr<ncio::ChunkStoreReader> store;
    std::unique_ptr<SufficientStats> spilled_stats;
    std::unique_ptr<MemberSource> spilled;

    Sources(const climate::VariableSpec& spec, std::size_t chunk_elems)
        : resident(ensemble_->ensemble_fields(spec)) {
      // A directory of its own: other test processes stage the same names.
      const std::string dir =
          (std::filesystem::path(::testing::TempDir()) /
           ("member_major_" + std::to_string(::getpid())))
              .string();
      std::filesystem::create_directories(dir);
      store = std::make_unique<ncio::ChunkStoreReader>(
          stage_variable(*ensemble_, spec, dir, chunk_elems, budget));
      spilled_stats = std::make_unique<SufficientStats>(build_spilled_stats(*store, budget));
      spilled = spilled_members(*store, *spilled_stats, budget);
    }
  };

  static std::vector<comp::CodecPtr> variants(const climate::VariableSpec& spec,
                                              std::size_t chunk_elems) {
    const std::optional<float> fill =
        spec.has_fill ? std::optional<float>(climate::kFillValue) : std::nullopt;
    std::vector<comp::CodecPtr> out;
    for (const comp::CodecPtr& codec : comp::paper_variants(4, fill)) {
      out.push_back(with_chunking(codec, chunk_elems));
    }
    return out;
  }

  static climate::EnsembleGenerator* ensemble_;
};

climate::EnsembleGenerator* PvtTestMemberMajor::ensemble_ = nullptr;

TEST_F(PvtTestMemberMajor, ScoresEqualPerVariantSweepAndOneShotOracleBitForBit) {
  const std::vector<std::size_t> tests = {2, 9, 14};
  for (const char* name : {"U", "SST"}) {
    const climate::VariableSpec& spec = ensemble_->variable(name);
    for (const std::size_t chunk_elems : {std::size_t{1024}, std::size_t{1} << 16}) {
      Sources sources(spec, chunk_elems);
      const std::vector<comp::CodecPtr> codecs = variants(spec, chunk_elems);
      std::vector<const comp::Codec*> raw;
      for (const comp::CodecPtr& c : codecs) raw.push_back(c.get());

      // The oracle: each member's whole-field round trip, z-scored by the
      // one-shot kernel.
      const std::size_t m_count = sources.resident.member_count();
      std::vector<std::vector<double>> oracle(codecs.size(), std::vector<double>(m_count));
      for (std::size_t v = 0; v < codecs.size(); ++v) {
        for (std::size_t m = 0; m < m_count; ++m) {
          const climate::Field& f = sources.resident.member(m);
          oracle[v][m] = sources.resident.rmsz_of(
              m, codecs[v]->decode(codecs[v]->encode(f.data, f.shape)));
        }
      }

      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        ScopedScheduler sched(workers);
        const ResidentMembers resident(sources.resident);
        for (const MemberSource* source : std::initializer_list<const MemberSource*>{&resident,
                                           sources.spilled.get()}) {
          SCOPED_TRACE(std::string(name) + " chunk_elems " + std::to_string(chunk_elems) +
                       " workers " + std::to_string(workers) +
                       (source == &resident ? " resident" : " spilled"));
          const PvtVerifier verifier(*source);
          const std::vector<PvtVerifier::VariantOutcome> outcomes =
              verifier.verify_variants(raw, tests, /*run_bias=*/true);
          ASSERT_EQ(outcomes.size(), codecs.size());
          for (std::size_t v = 0; v < codecs.size(); ++v) {
            SCOPED_TRACE(codecs[v]->name());
            ASSERT_FALSE(outcomes[v].error);
            const std::vector<double> swept = verifier.reconstructed_rmsz(*codecs[v]);
            for (std::size_t m = 0; m < m_count; ++m) {
              EXPECT_EQ(bits(swept[m]), bits(oracle[v][m])) << "member " << m;
            }
            const VariableVerdict& verdict = outcomes[v].verdict;
            ASSERT_EQ(verdict.members.size(), tests.size());
            for (const MemberEvaluation& e : verdict.members) {
              EXPECT_EQ(bits(e.rmsz_reconstructed), bits(oracle[v][e.member]));
            }
            const BiasResult expected =
                bias_test(source->stats().rmsz_distribution(), oracle[v],
                          verifier.thresholds().bias_confidence);
            EXPECT_EQ(bits(verdict.bias.fit.slope), bits(expected.fit.slope));
            EXPECT_EQ(bits(verdict.bias.fit.intercept), bits(expected.fit.intercept));
            EXPECT_EQ(bits(verdict.bias.slope_distance), bits(expected.slope_distance));
            EXPECT_EQ(verdict.bias.pass, expected.pass);
          }
        }
      }
    }
  }
}

TEST_F(PvtTestMemberMajor, CodecFaultSettlesOnLowestFailingMemberAtAnyWorkerCount) {
  // One variant throws at a test member (14) and at a lower non-test
  // member (5): it alone fails, with member 5's message, resident or
  // spilled, at one worker or four. Its neighbours are unaffected.
  const std::vector<std::size_t> tests = {2, 9, 14};
  const climate::VariableSpec& spec = ensemble_->variable("U");
  const std::size_t chunk_elems = 1024;
  Sources sources(spec, chunk_elems);
  std::map<std::uint32_t, std::size_t> poison;
  for (const std::size_t m : {std::size_t{5}, std::size_t{14}}) {
    poison.emplace(std::bit_cast<std::uint32_t>(sources.resident.member(m).data[0]), m);
  }
  ASSERT_EQ(poison.size(), 2u);
  const comp::CodecPtr before =
      with_chunking(std::make_shared<comp::FpzCodec>(16), chunk_elems);
  const comp::CodecPtr faulty = with_chunking(
      std::make_shared<FaultyCodec>(std::make_shared<comp::FpzCodec>(24), poison),
      chunk_elems);
  const comp::CodecPtr after =
      with_chunking(std::make_shared<comp::FpzCodec>(32), chunk_elems);
  const comp::Codec* const codecs[] = {before.get(), faulty.get(), after.get()};

  for (const bool run_bias : {true, false}) {
    std::set<std::string> messages;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      ScopedScheduler sched(workers);
      const ResidentMembers resident(sources.resident);
      for (const MemberSource* source : std::initializer_list<const MemberSource*>{&resident,
                                         sources.spilled.get()}) {
        SCOPED_TRACE(std::string(run_bias ? "bias" : "no bias") + ", workers " +
                     std::to_string(workers) +
                     (source == &resident ? ", resident" : ", spilled"));
        const PvtVerifier verifier(*source);
        const std::vector<PvtVerifier::VariantOutcome> outcomes =
            verifier.verify_variants(codecs, tests, run_bias);
        ASSERT_EQ(outcomes.size(), 3u);
        ASSERT_TRUE(outcomes[1].error);
        try {
          std::rethrow_exception(outcomes[1].error);
        } catch (const Error& e) {
          messages.insert(e.what());
        }
        for (const std::size_t v : {std::size_t{0}, std::size_t{2}}) {
          ASSERT_FALSE(outcomes[v].error);
          const VariableVerdict alone = verifier.verify(*codecs[v], tests, run_bias);
          EXPECT_EQ(bits(outcomes[v].verdict.mean_cr), bits(alone.mean_cr));
          EXPECT_EQ(bits(outcomes[v].verdict.bias.fit.slope), bits(alone.bias.fit.slope));
          ASSERT_EQ(outcomes[v].verdict.members.size(), alone.members.size());
          for (std::size_t i = 0; i < alone.members.size(); ++i) {
            EXPECT_EQ(bits(outcomes[v].verdict.members[i].rmsz_reconstructed),
                      bits(alone.members[i].rmsz_reconstructed));
          }
        }
        EXPECT_THROW((void)verifier.verify(*faulty, tests, run_bias), Error);
      }
    }
    // Without the bias sweep only the test members run: member 14 settles it.
    const std::string expected =
        std::string("injected codec fault at member ") + (run_bias ? "5" : "14");
    EXPECT_EQ(messages, std::set<std::string>{expected});
  }
}

TEST_F(PvtTestMemberMajor, LaneBuffersAreAllocatedOncePerLane) {
  // Each lane's reconstruction, leave-one-out and z-score state is sized
  // once and reused for every member it takes: a pass over 17 members at
  // four workers allocates at most one lane per concurrent member, and a
  // second pass on the same verifier allocates none.
  const climate::VariableSpec& spec = ensemble_->variable("U");
  const EnsembleStats stats(ensemble_->ensemble_fields(spec));
  const std::vector<comp::CodecPtr> codecs = comp::paper_variants(4);
  std::vector<const comp::Codec*> raw;
  for (const comp::CodecPtr& c : codecs) raw.push_back(c.get());
  const std::vector<std::size_t> tests = {2, 9, 14};

  ScopedScheduler sched(4);
  const PvtVerifier verifier(stats);
  trace::set_enabled(true);
  trace::reset();
  (void)verifier.verify_variants(raw, tests, /*run_bias=*/true);
  const auto first = trace::counters();
  trace::reset();
  (void)verifier.verify_variants(raw, tests, /*run_bias=*/true);
  const auto second = trace::counters();
  trace::set_enabled(false);

  const auto count = [](const std::map<std::string, std::uint64_t>& c, const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_GE(count(first, "pvt.sweep_lanes"), 1u);
  EXPECT_LE(count(first, "pvt.sweep_lanes"), parallel_lanes());
  EXPECT_LT(count(first, "pvt.sweep_lanes"), stats.member_count());
  EXPECT_EQ(count(second, "pvt.sweep_lanes"), 0u);
  EXPECT_EQ(count(second, "pvt.member_reconstructs"),
            codecs.size() * (stats.member_count() - tests.size()));
}

TEST_F(PvtTestMemberMajor, EveryVariantInjectedBeforeThePassYieldsCodecErrorVerdicts) {
  // With the catalog-order pre-pass failing every variant, no codec is left
  // for the member-major pass: it walks no member, and each variant still
  // gets its codec-error verdict with a lossless stand-in verified in full.
  const climate::VariableSpec& spec = ensemble_->variable("U");
  SuiteConfig config;
  config.grib_max_extra_digits = 1;
  const auto count = [](const std::map<std::string, std::uint64_t>& c, const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };

  // The pass itself: an empty codec list scores nothing and reads nothing.
  {
    const EnsembleStats stats(ensemble_->ensemble_fields(spec));
    const PvtVerifier verifier(stats);
    const std::vector<std::size_t> tests = {2, 9, 14};
    trace::set_enabled(true);
    trace::reset();
    EXPECT_TRUE(verifier.verify_variants({}, tests, /*run_bias=*/true).empty());
    const auto counters = trace::counters();
    trace::set_enabled(false);
    EXPECT_EQ(count(counters, "pvt.member_roundtrips"), 0u);
    EXPECT_EQ(count(counters, "pvt.member_reconstructs"), 0u);
  }

  fail::reset();
  VariableResult result;
  {
    fail::ScopedFailpoint fp("suite.verify_variant", fail::Trigger::always());
    result = run_variable(*ensemble_, spec, config);
  }
  EXPECT_EQ(fail::fire_count("suite.verify_variant"), comp::paper_variants(4).size());
  fail::reset();

  ASSERT_FALSE(result.processing_failed);
  ASSERT_EQ(result.verdicts.size(), comp::paper_variants(4).size());
  for (const VariableVerdict& verdict : result.verdicts) {
    SCOPED_TRACE(verdict.codec);
    EXPECT_TRUE(verdict.codec_error);
    EXPECT_NE(verdict.error_message.find("suite.verify_variant"), std::string::npos);
    EXPECT_FALSE(verdict.fallback_codec.empty());
    EXPECT_EQ(verdict.members.size(), config.test_member_count);
    EXPECT_TRUE(verdict.bias_evaluated);
    EXPECT_FALSE(verdict.rho_pass || verdict.rmsz_pass || verdict.enmax_pass ||
                 verdict.bias_pass);
  }
}

}  // namespace
}  // namespace cesm::core
