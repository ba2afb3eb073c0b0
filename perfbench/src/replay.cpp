#include "replay.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "compress/deflate/deflate.h"
#include "compress/fpz/fpz.h"
#include "compress/prep.h"
#include "compress/variants.h"
#include "core/bias.h"
#include "core/export.h"
#include "core/grib_tuning.h"
#include "core/metrics.h"
#include "core/pvt.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace perfbench {

using namespace cesm;

namespace {

using Clock = std::chrono::steady_clock;

/// The four codec families with their own per-layer metrics:
/// Codec::family() and the metric-name prefix.
struct Family {
  const char* name;
  const char* metric;
};
constexpr Family kFamilies[] = {{"fpzip", "compress.fpzip"},
                                {"ISABELA", "compress.isabela"},
                                {"APAX", "compress.apax"},
                                {"GRIB2", "compress.grib2"}};
constexpr std::size_t kFamilyCount = std::size(kFamilies);

/// In-memory span log of one replay. The replay runs at one worker, so
/// every span opens and closes on the replay's own thread and spans nest
/// strictly; a span from any other thread is counted and fails the run.
class Recorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint32_t id = 0;  ///< variable or request index
  };

  Recorder() : t0_(Clock::now()), owner_(std::this_thread::get_id()) {}

  int open(const std::string& name) {
    std::lock_guard lock(mu_);
    if (std::this_thread::get_id() != owner_) {
      ++foreign_;
      return -1;
    }
    spans_.push_back(Span{name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), id_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    if (index < 0) return;
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = now();
    stack_.pop_back();
  }

  /// A span whose interval is known from elsewhere (a phase duration the
  /// library reports), placed at `start` seconds of the replay clock.
  void add(const std::string& name, double start, double seconds) {
    std::lock_guard lock(mu_);
    spans_.push_back(
        Span{name, start, start + seconds, stack_.empty() ? -1 : stack_.back(), id_});
  }

  /// True while a span whose name starts with `prefix` is open.
  bool inside(const char* prefix) const {
    std::lock_guard lock(mu_);
    for (const int i : stack_) {
      if (spans_[static_cast<std::size_t>(i)].name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  void set_id(std::uint32_t id) { id_ = id; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  [[nodiscard]] std::uint64_t foreign() const { return foreign_; }

  /// Self time per span name: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
    return by_name;
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                    "\"id\": %u}%s\n",
                    s.name.c_str(), s.start, s.end, s.parent, s.id,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
  }

 private:
  Clock::time_point t0_;
  std::thread::id owner_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t id_ = 0;
  std::uint64_t foreign_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder& rec, const std::string& name) : rec_(rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& rec_;
  int index_;
};

/// Work counters the codec decorator and the replay loops accumulate.
struct Counters {
  std::uint64_t encode_calls = 0;
  std::uint64_t decode_calls = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t member_roundtrips = 0;
  double family_encode[kFamilyCount] = {};
  double family_decode[kFamilyCount] = {};
  std::uint64_t fields = 0;
  std::uint64_t grib_attempts = 0;
  std::uint64_t plans_built = 0;
  std::uint64_t plans_reused = 0;
  std::uint64_t bytes_spilled = 0;
};

/// Codec decorator that times every call into the codec layer. It
/// forwards the encode-prep hooks, so PlanStore takes the same plan path
/// through it as through the undecorated codec.
class TimingCodec final : public comp::Codec {
 public:
  TimingCodec(comp::CodecPtr inner, Recorder& rec, Counters& counters)
      : inner_(std::move(inner)), rec_(rec), counters_(counters) {
    const std::string fam = inner_->family();
    for (std::size_t f = 0; f < kFamilyCount; ++f) {
      if (fam == kFamilies[f].name) family_ = static_cast<int>(f);
    }
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string family() const override { return inner_->family(); }
  [[nodiscard]] comp::Capabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] bool is_lossless() const override { return inner_->is_lossless(); }

  [[nodiscard]] Bytes encode(std::span<const float> data,
                             const comp::Shape& shape) const override {
    const double t = rec_.now();
    Bytes out;
    {
      ScopedSpan span(rec_, "compress.encode");
      out = inner_->encode(data, shape);
    }
    note_encode(rec_.now() - t, data.size_bytes() + out.size());
    return out;
  }

  [[nodiscard]] std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    const double t = rec_.now();
    std::vector<float> out;
    {
      ScopedSpan span(rec_, "compress.decode");
      out = inner_->decode(stream);
    }
    note_decode(rec_.now() - t, stream.size() + out.size() * sizeof(float));
    return out;
  }

  void decode_into(std::span<const std::uint8_t> stream,
                   std::span<float> out) const override {
    const double t = rec_.now();
    {
      ScopedSpan span(rec_, "compress.decode");
      inner_->decode_into(stream, out);
    }
    note_decode(rec_.now() - t, stream.size() + out.size_bytes());
  }

  [[nodiscard]] Bytes encode64(std::span<const double> data,
                               const comp::Shape& shape) const override {
    ScopedSpan span(rec_, "compress.encode");
    return inner_->encode64(data, shape);
  }

  [[nodiscard]] std::vector<double> decode64(
      std::span<const std::uint8_t> stream) const override {
    ScopedSpan span(rec_, "compress.decode");
    return inner_->decode64(stream);
  }

  [[nodiscard]] std::string prep_key() const override { return inner_->prep_key(); }

  [[nodiscard]] comp::PrepPlanPtr build_prep(std::span<const float> data,
                                             const comp::Shape& shape) const override {
    ScopedSpan span(rec_, "compress.prep");
    return inner_->build_prep(data, shape);
  }

  [[nodiscard]] Bytes encode_with_prep(const comp::PrepPlan& plan,
                                       std::span<const float> data,
                                       const comp::Shape& shape) const override {
    const double t = rec_.now();
    Bytes out;
    {
      ScopedSpan span(rec_, "compress.encode");
      out = inner_->encode_with_prep(plan, data, shape);
    }
    note_encode(rec_.now() - t, data.size_bytes() + out.size());
    return out;
  }

 private:
  void note_encode(double seconds, std::uint64_t bytes) const {
    ++counters_.encode_calls;
    counters_.bytes_moved += bytes;
    if (family_ >= 0) counters_.family_encode[family_] += seconds;
  }
  void note_decode(double seconds, std::uint64_t bytes) const {
    ++counters_.decode_calls;
    counters_.bytes_moved += bytes;
    if (family_ >= 0) counters_.family_decode[family_] += seconds;
    if (rec_.inside("pvt.")) ++counters_.member_roundtrips;
  }

  comp::CodecPtr inner_;
  Recorder& rec_;
  Counters& counters_;
  int family_ = -1;
};

/// One replay in progress: the recorder, the counters and the clock.
struct ReplayState {
  Recorder rec;
  Counters counters;

  comp::CodecPtr timed(comp::CodecPtr codec) {
    return std::make_shared<TimingCodec>(std::move(codec), rec, counters);
  }
};

/// verify_with_fallback (core/suite.cpp) through public calls: tests 1-3,
/// then the bias sweep and its regression as separate layer calls.
core::VariableVerdict replay_verify(ReplayState& s, const core::PvtVerifier& verifier,
                                    const core::EnsembleStats& stats,
                                    const comp::Codec& codec, std::optional<float> fill,
                                    std::span<const std::size_t> test_members,
                                    const core::SuiteConfig& config) {
  try {
    core::VariableVerdict verdict;
    {
      ScopedSpan span(s.rec, "pvt.score");
      verdict = verifier.verify(codec, test_members, /*run_bias=*/false);
    }
    if (config.run_bias) {
      std::vector<double> scores;
      {
        ScopedSpan span(s.rec, "pvt.bias_sweep");
        scores = verifier.reconstructed_rmsz(codec);
      }
      {
        ScopedSpan span(s.rec, "core.bias_regression");
        verdict.bias = core::bias_test(stats.rmsz_distribution(), scores,
                                       config.thresholds.bias_confidence);
      }
      verdict.bias_pass = verdict.bias.pass;
      verdict.bias_evaluated = true;
    }
    return verdict;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const Error& e) {
    // The suite's codec-error verdict: no pass flags, lossless stand-in
    // scored for information when the fallback policy is on.
    core::VariableVerdict verdict;
    verdict.variable = stats.member(0).name;
    verdict.codec = codec.name();
    verdict.codec_error = true;
    verdict.error_message = e.what();
    if (config.lossless_fallback) {
      const comp::CodecPtr stand_in =
          core::lossless_stand_in(codec.name(), fill, config.chunk_elems);
      try {
        ScopedSpan span(s.rec, "pvt.score");
        core::VariableVerdict lossless =
            verifier.verify(*s.timed(stand_in), test_members, config.run_bias);
        verdict.members = std::move(lossless.members);
        verdict.mean_cr = lossless.mean_cr;
        verdict.bias = lossless.bias;
        verdict.bias_evaluated = lossless.bias_evaluated;
        verdict.fallback_codec = stand_in->name();
      } catch (const Error&) {
      }
    }
    return verdict;
  }
}

/// run_variable (core/suite.cpp) through public calls, given the
/// variable's ensemble statistics.
core::VariableResult replay_variable(ReplayState& s, const core::EnsembleStats& stats,
                                     const climate::VariableSpec& spec,
                                     const core::SuiteConfig& config,
                                     const comp::VariantPool& pool) {
  core::VariableResult result;
  result.variable = spec.name;
  result.is_3d = spec.is_3d;
  if (spec.has_fill) result.fill = climate::kFillValue;

  comp::PlanStore plans(config.plan_cache_bytes);
  core::PvtVerifier verifier(stats, config.thresholds);
  verifier.set_plan_store(&plans);
  result.test_members = core::PvtVerifier::pick_members(
      config.test_member_count, stats.member_count(),
      hash_combine(config.member_seed, spec.stream));

  const climate::Field& probe = stats.member(result.test_members.front());
  result.character =
      core::characterize(probe, *s.timed(std::make_shared<comp::DeflateCodec>()));
  result.netcdf4_cr = result.character.lossless_cr;
  {
    const comp::CodecPtr fpz32 = s.timed(std::make_shared<comp::FpzCodec>(32));
    const Bytes stream =
        plans.encode(*fpz32, probe.data, probe.shape, result.test_members.front());
    result.fpzip32_cr = comp::compression_ratio(stream.size(), probe.data.size());
  }

  core::GribTuning tuning;
  {
    ScopedSpan span(s.rec, "core.grib_tune");
    tuning = core::rmsz_guided_decimal_scale(
        stats, result.fill, result.test_members, config.thresholds,
        config.grib_significant_digits, config.grib_max_extra_digits, config.chunk_elems,
        &plans);
  }
  s.counters.grib_attempts += static_cast<std::uint64_t>(tuning.attempts);
  result.grib_decimal_scale = tuning.decimal_scale;
  result.grib_tuning_passed = tuning.passed;

  for (const comp::CodecPtr& variant : pool.assemble(result.grib_decimal_scale, result.fill)) {
    const comp::CodecPtr codec = s.timed(variant);
    result.verdicts.push_back(replay_verify(s, verifier, stats, *codec, result.fill,
                                            result.test_members, config));
  }
  s.counters.plans_built += plans.plans_built();
  s.counters.plans_reused += plans.plans_reused();
  return result;
}

std::shared_ptr<const core::EnsembleStats> replay_stats(ReplayState& s,
                                                        const climate::EnsembleGenerator& ens,
                                                        const climate::VariableSpec& spec) {
  std::vector<climate::Field> fields;
  {
    ScopedSpan span(s.rec, "climate.synth");
    fields = ens.ensemble_fields(spec);
  }
  s.counters.fields += fields.size();
  ScopedSpan span(s.rec, "core.stats_build");
  return std::make_shared<const core::EnsembleStats>(std::move(fields));
}

void export_csv(ReplayState& s, const std::vector<core::VariableResult>& variables) {
  core::SuiteResults results;
  results.variables = variables;
  core::derive_variant_names(results);
  ScopedSpan span(s.rec, "core.csv_export");
  const std::string csv = core::suite_results_csv(results);
  if (csv.empty()) throw Error("empty suite CSV");
}

/// Fold the replay state into the replay's per-layer metrics and check that
/// self-times plus the unattributed remainder add up to the wall clock.
Replay finish(ReplayState& s, std::vector<core::VariableResult> variables,
              const std::string& spans_path) {
  Replay r;
  r.wall_s = s.rec.now();
  r.variables = std::move(variables);
  if (s.rec.foreign() != 0) {
    throw Error("traced replay recorded spans from another thread");
  }
  const std::map<std::string, double> self = s.rec.self_times();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  static const std::pair<const char*, const char*> kLayerSpans[] = {
      {"climate.synth", "climate.synth_s"},
      {"core.stats_build", "core.stats_build_s"},
      {"core.grib_tune", "core.grib_tune_s"},
      {"compress.encode", "compress.encode_s"},
      {"compress.decode", "compress.decode_s"},
      {"compress.prep", "compress.prep_s"},
      {"pvt.score", "pvt.score_s"},
      {"pvt.bias_sweep", "pvt.bias_sweep_s"},
      {"core.bias_regression", "core.bias_regression_s"},
      {"core.csv_export", "core.csv_export_s"},
      {"ooc.stage", "ooc.stage_s"},
      {"ooc.stats", "ooc.stats_s"},
      {"ooc.verify", "ooc.verify_s"},
  };
  double attributed = 0.0;
  for (const auto& [span, metric] : kLayerSpans) {
    r.layers.set(metric, self_of(span), "s");
    attributed += self_of(span);
  }
  for (const auto& [name, seconds] : self) {
    bool known = false;
    for (const auto& entry : kLayerSpans) known = known || name == entry.first;
    if (!known) throw Error("span without a layer metric: " + name);
  }
  const double unattributed = r.wall_s - attributed;
  if (unattributed < -1e-6 * r.wall_s) {
    throw Error("layer self-times exceed the replay wall clock");
  }
  r.layers.set("trace.unattributed_s", unattributed, "s");

  const Counters& c = s.counters;
  r.layers.set("climate.fields", static_cast<double>(c.fields), "count");
  r.layers.set("core.grib_tune_attempts", static_cast<double>(c.grib_attempts), "count");
  r.layers.set("compress.encode_calls", static_cast<double>(c.encode_calls), "count");
  r.layers.set("compress.decode_calls", static_cast<double>(c.decode_calls), "count");
  r.layers.set("compress.bytes_moved", static_cast<double>(c.bytes_moved), "bytes");
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    r.layers.set(std::string(kFamilies[f].metric) + ".encode_s", c.family_encode[f], "s");
    r.layers.set(std::string(kFamilies[f].metric) + ".decode_s", c.family_decode[f], "s");
  }
  r.layers.set("prep.plans_built", static_cast<double>(c.plans_built), "count");
  r.layers.set("prep.plans_reused", static_cast<double>(c.plans_reused), "count");
  const std::uint64_t lookups = c.plans_built + c.plans_reused;
  r.layers.set("prep.reuse_ratio",
               lookups == 0 ? 0.0
                            : static_cast<double>(c.plans_reused) /
                                  static_cast<double>(lookups),
               "ratio");
  r.layers.set("pvt.member_roundtrips", static_cast<double>(c.member_roundtrips), "count");
  r.layers.set("ncio.bytes_spilled", static_cast<double>(c.bytes_spilled), "bytes");
  s.rec.write_json(spans_path);
  return r;
}

}  // namespace

Replay replay_batch(const climate::EnsembleGenerator& ensemble,
                    const core::SuiteConfig& config,
                    const std::vector<std::string>& variables,
                    const std::string& spans_path) {
  ScopedScheduler one(1);
  ReplayState s;
  comp::VariantPool pool;
  std::vector<core::VariableResult> results;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    s.rec.set_id(static_cast<std::uint32_t>(i));
    const climate::VariableSpec& spec = ensemble.variable(variables[i]);
    const std::shared_ptr<const core::EnsembleStats> stats = replay_stats(s, ensemble, spec);
    results.push_back(replay_variable(s, *stats, spec, config, pool));
  }
  export_csv(s, results);
  return finish(s, std::move(results), spans_path);
}

Replay replay_stream(const climate::EnsembleGenerator& ensemble,
                     const core::OocConfig& config,
                     const std::vector<std::string>& variables,
                     const std::string& spans_path) {
  ScopedScheduler one(1);
  ReplayState s;
  core::OocConfig staged = config;
  staged.reuse_spill = true;  // run_variable_streaming picks up the spill staged below
  util::MemoryBudget budget(config.memory_budget_bytes);
  std::vector<core::VariableResult> results;
  for (std::size_t i = 0; i < variables.size(); ++i) {
    s.rec.set_id(static_cast<std::uint32_t>(i));
    const climate::VariableSpec& spec = ensemble.variable(variables[i]);
    const std::string path =
        core::spill_path(staged.spill_dir, spec.name,
                         core::spill_key(ensemble.spec(), spec, staged.chunk_elems));
    {
      // Synthesis streamed straight into the spill store.
      ScopedSpan span(s.rec, "climate.synth");
      util::MemoryBudget stage_budget(config.memory_budget_bytes);
      core::stage_variable_at(ensemble, spec, path, staged.chunk_elems, stage_budget);
    }
    s.counters.fields += ensemble.members();
    core::OocPhaseStats phases;
    const double t = s.rec.now();
    results.push_back(core::run_variable_streaming(ensemble, spec, staged, &phases, &budget));
    // The phases run back to back inside the call; their durations come
    // from the library's own phase clock.
    s.rec.add("ooc.stage", t, phases.stage_seconds);
    s.rec.add("ooc.stats", t + phases.stage_seconds, phases.stats_seconds);
    s.rec.add("ooc.verify", t + phases.stage_seconds + phases.stats_seconds,
              phases.verify_seconds);
    s.counters.bytes_spilled += phases.bytes_spilled;
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  export_csv(s, results);
  return finish(s, std::move(results), spans_path);
}

Replay replay_serve(const climate::EnsembleGenerator& ensemble,
                    const core::SuiteConfig& config,
                    const std::vector<std::string>& requests,
                    const std::string& spans_path) {
  ScopedScheduler one(1);
  ReplayState s;
  comp::VariantPool pool;
  std::map<std::string, std::shared_ptr<const core::EnsembleStats>> built;
  std::vector<core::VariableResult> distinct;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    s.rec.set_id(static_cast<std::uint32_t>(i));
    const climate::VariableSpec& spec = ensemble.variable(requests[i]);
    std::shared_ptr<const core::EnsembleStats>& stats = built[spec.name];
    const bool first = stats == nullptr;
    if (first) stats = replay_stats(s, ensemble, spec);
    core::VariableResult result = replay_variable(s, *stats, spec, config, pool);
    if (first) distinct.push_back(std::move(result));
  }
  return finish(s, std::move(distinct), spans_path);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"climate.synth_s", "s"},
        {"climate.fields", "count"},
        {"climate.setup_s", "s"},
        {"core.stats_build_s", "s"},
        {"core.grib_tune_s", "s"},
        {"core.grib_tune_attempts", "count"},
        {"compress.encode_s", "s"},
        {"compress.decode_s", "s"},
        {"compress.encode_calls", "count"},
        {"compress.decode_calls", "count"},
        {"compress.bytes_moved", "bytes"},
    };
    for (std::size_t f = 0; f < kFamilyCount; ++f) {
      m.emplace_back(std::string(kFamilies[f].metric) + ".encode_s", "s");
      m.emplace_back(std::string(kFamilies[f].metric) + ".decode_s", "s");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"compress.prep_s", "s"},
        {"prep.plans_built", "count"},
        {"prep.plans_reused", "count"},
        {"prep.reuse_ratio", "ratio"},
        {"pvt.score_s", "s"},
        {"pvt.bias_sweep_s", "s"},
        {"pvt.member_roundtrips", "count"},
        {"core.bias_regression_s", "s"},
        {"core.csv_export_s", "s"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"ooc.stage_s", "s"},
        {"ooc.stats_s", "s"},
        {"ooc.verify_s", "s"},
        {"ncio.bytes_spilled", "bytes"},
        {"mem.budget_peak_mb", "MiB"},
        {"mem.reserve_waits", "count"},
        {"mem.rss_gap_mb", "MiB"},
        {"sched.busy_s", "s"},
        {"sched.idle_s", "s"},
        {"sched.steal_ratio", "ratio"},
        {"sched.tasks", "count"},
        {"serve.ping_ms", "ms"},
        {"serve.flights", "count"},
        {"serve.coalesce_ratio", "ratio"},
        {"serve.rejected", "count"},
        {"fail_ratio", "ratio"},
        {"trace.unattributed_s", "s"},
        {"trace.overhead_s", "s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

}  // namespace perfbench
