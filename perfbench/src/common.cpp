#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "compress/simd.h"
#include "core/ensemble_cache.h"
#include "util/cache.h"

namespace perfbench {

using namespace cesm;

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.emplace_back(name, std::make_pair(value, unit));
}

double Metrics::get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return 0.0;
}

void Outcome::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

std::uint64_t verdict_digest(const std::vector<core::VariableResult>& variables) {
  util::KeyHasher h;
  for (const core::VariableResult& var : variables) {
    h.str(var.variable).boolean(var.processing_failed).i64(var.grib_decimal_scale);
    for (const core::VariableVerdict& v : var.verdicts) {
      h.str(v.codec)
          .boolean(v.rho_pass)
          .boolean(v.rmsz_pass)
          .boolean(v.enmax_pass)
          .boolean(v.bias_pass)
          .boolean(v.codec_error)
          .f64(v.mean_cr);
      for (const core::MemberEvaluation& m : v.members) {
        h.u64(m.member).f64(m.cr).f64(m.metrics.pearson).f64(m.rmsz_reconstructed);
      }
    }
  }
  return h.digest();
}

std::uint64_t failed_cells(const core::SuiteResults& results) {
  const std::uint64_t variants = results.variant_names.size();
  std::uint64_t failed = 0;
  for (const core::VariableResult& var : results.variables) {
    if (var.processing_failed) {
      failed += variants;
      continue;
    }
    for (const core::VariableVerdict& v : var.verdicts) failed += v.codec_error ? 1 : 0;
  }
  return failed;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void check_reference(const Args& args, const std::string& key, std::uint64_t digest,
                     Outcome& out) {
  if (args.record) {
    std::printf("%s %s\n", key.c_str(), hex64(digest).c_str());
    return;
  }
  std::ifstream in(args.reference);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k;
    std::string v;
    if (fields >> k >> v && k == key) {
      if (v != hex64(digest)) {
        out.fail("digest " + key + " is " + hex64(digest) + ", reference " + v);
      }
      return;
    }
  }
  out.fail("no reference digest for " + key + " in " + args.reference);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

void reset_ensemble_cache() {
  util::CacheConfig cfg;  // on, 256 MiB, memory tier only: the shipped default
  core::EnsembleCache::global().configure(cfg);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_record_json(bool rss_reset_supported) {
  bool avx2 = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  const char* simd_env = std::getenv("CESM_SIMD");
  std::ostringstream o;
  o << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"avx2\": " << (avx2 ? "true" : "false")
    << ", \"cesm_simd\": \"" << (simd_env != nullptr ? json_escape(simd_env) : "unset")
    << "\", \"simd_mode\": \"" << comp::simd::mode_name(comp::simd::active_mode())
    << "\", \"workers\": " << kWorkers
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
    << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\""
    << ", \"reset_peak_rss\": " << (rss_reset_supported ? "true" : "false") << "}";
  return o.str();
}

climate::EnsembleSpec reduced_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::reduced();
  spec.members = 101;
  return spec;
}

climate::EnsembleSpec paper_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::paper();
  spec.members = 101;
  return spec;
}

}  // namespace perfbench
