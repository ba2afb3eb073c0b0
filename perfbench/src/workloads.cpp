// The four workloads. Each one sets up (several times, for a steady
// setup_s), then repeats its timed call with tracing off until the run's
// measuring time is used, every repetition starting from a cold ensemble
// cache and, for streaming, a fresh spill directory. Correctness checks and
// the traced replay run outside the timed window.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "climate/variables.h"
#include "core/ensemble_cache.h"
#include "core/ooc.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/stopwatch.h"

namespace perfbench {

using namespace cesm;

namespace {

/// Members of a serve_mix request's ensemble.
constexpr std::size_t kServeMembers = 31;
/// Variables in the serve_mix request mix, and the hot set filled into
/// the cache before timing (the most popular ranks).
constexpr std::size_t kServeVariables = 16;
constexpr std::size_t kServeHot = 4;
constexpr std::size_t kServeClients = 4;
/// Shared logical memory cap of stream_paper (the CI's CESM_MEM_MB).
constexpr std::uint64_t kStreamBudgetBytes = 88ull << 20;

std::uint64_t member_seed_for(std::uint64_t seed) {
  return hash_combine(0x73575eedull, seed);
}

/// `count` names drawn without replacement from `pool` by `rng`.
std::vector<std::string> draw(std::vector<std::string> pool, std::size_t count, Pcg32& rng) {
  CESM_REQUIRE(count <= pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.bounded(static_cast<std::uint32_t>(pool.size() - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

bool is_spotlight(const std::string& name) {
  for (const char* s : climate::kSpotlightVariables) {
    if (name == s) return true;
  }
  return false;
}

/// Catalog names split into strata (spotlight variables excluded).
struct Strata {
  std::vector<std::string> three_d, two_d, fill;
};

Strata strata(const std::vector<climate::VariableSpec>& catalog) {
  Strata s;
  for (const climate::VariableSpec& v : catalog) {
    if (is_spotlight(v.name)) continue;
    if (v.has_fill) {
      s.fill.push_back(v.name);
    } else if (v.is_3d) {
      s.three_d.push_back(v.name);
    } else {
      s.two_d.push_back(v.name);
    }
  }
  return s;
}

/// table6_bias: the four spotlight variables plus a seeded stratified
/// draw of 9 3-D, 7 2-D and 4 fill-valued (2-D) variables, 24 in all.
/// The run order is a fixed pattern of strata (3-D and 2-D alternating,
/// every third 2-D slot fill-valued), so which sizes run side by side on
/// the workers does not depend on the seed; only the names do.
std::vector<std::string> table6_variables(const std::vector<climate::VariableSpec>& catalog,
                                          std::uint64_t seed) {
  Pcg32 rng(hash_combine(seed, 0x7ab1e6));
  const Strata s = strata(catalog);
  std::vector<std::string> big = {"U", "Z3", "CCN3"};
  for (const std::string& name : draw(s.three_d, 9, rng)) big.push_back(name);
  const std::vector<std::string> plain = draw(s.two_d, 7, rng);
  const std::vector<std::string> fill = draw(s.fill, 4, rng);
  std::vector<std::string> small = {"FSDSC"};
  for (std::size_t i = 0, p = 0, f = 0; i < 11; ++i) {
    small.push_back(i % 3 == 1 ? fill[f++] : plain[p++]);
  }
  std::vector<std::string> names;
  for (std::size_t i = 0; i < big.size(); ++i) {
    names.push_back(big[i]);
    names.push_back(small[i]);
  }
  return names;
}

/// stream_paper: U and Z3, then six seeded 2-D variables.
std::vector<std::string> stream_variables(const std::vector<climate::VariableSpec>& catalog,
                                          std::uint64_t seed) {
  Pcg32 rng(hash_combine(seed, 0x57a3));
  std::vector<std::string> names = {"U", "Z3"};
  const std::vector<std::string> two_d = draw(strata(catalog).two_d, 6, rng);
  names.insert(names.end(), two_d.begin(), two_d.end());
  return names;
}

/// serve_mix: 16 seeded variables ranked by popularity, 3-D and 2-D
/// alternating so every seed's hot set mixes both sizes.
std::vector<std::string> serve_ranking(const std::vector<climate::VariableSpec>& catalog,
                                       std::uint64_t seed) {
  Pcg32 rng(hash_combine(seed, 0x5e7e));
  const Strata s = strata(catalog);
  const std::vector<std::string> big = draw(s.three_d, kServeVariables / 2, rng);
  const std::vector<std::string> small = draw(s.two_d, kServeVariables / 2, rng);
  std::vector<std::string> ranked;
  for (std::size_t i = 0; i < kServeVariables / 2; ++i) {
    ranked.push_back(big[i]);
    ranked.push_back(small[i]);
  }
  return ranked;
}

/// Zipf(1) rank draw over kServeVariables ranks.
std::size_t draw_rank(Pcg32& rng) {
  static const std::vector<double> cdf = [] {
    std::vector<double> c(kServeVariables);
    double acc = 0.0;
    for (std::size_t r = 0; r < kServeVariables; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      c[r] = acc;
    }
    for (double& x : c) x /= acc;
    return c;
  }();
  const double u = static_cast<double>(rng.next_u32()) / 4294967296.0;
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               kServeVariables - 1);
}

/// Scheduler plus ensemble generator: what every batch workload sets up.
struct Rig {
  std::unique_ptr<ScopedScheduler> sched;
  std::unique_ptr<climate::EnsembleGenerator> gen;
};

/// Set up kSetupReps times (tearing down in between) and keep the last
/// rig. setup_s is the median of the full set-ups, climate.setup_s the
/// median of the generator constructions alone.
Rig set_up(const climate::EnsembleSpec& spec, Outcome& out) {
  Rig rig;
  std::vector<double> total;
  std::vector<double> generator;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    rig.gen.reset();
    rig.sched.reset();
    Stopwatch sw;
    rig.sched = std::make_unique<ScopedScheduler>(kWorkers);
    const double t_sched = sw.seconds();
    rig.gen = std::make_unique<climate::EnsembleGenerator>(spec);
    total.push_back(sw.seconds());
    generator.push_back(sw.seconds() - t_sched);
  }
  out.end_to_end.set("setup_s", median(total), "s");
  out.per_layer.set("climate.setup_s", median(generator), "s");
  return rig;
}

/// Whether another timed repetition starts: measuring goes on until
/// `seconds` are used, and a repetition starts only while at least half
/// of an average repetition's time is left.
bool another_rep(const Stopwatch& window, std::size_t done, double seconds) {
  const double used = window.seconds();
  return seconds - used >= 0.5 * used / static_cast<double>(done);
}

/// One timed repetition's readings.
struct Rep {
  double wall = 0.0;
  double cpu = 0.0;
  double rss_mb = 0.0;
};

void set_end_to_end(Outcome& out, const std::vector<Rep>& reps, double requests_per_rep) {
  std::vector<double> wall, cpu, rss, rps, ms;
  for (const Rep& r : reps) {
    wall.push_back(r.wall);
    cpu.push_back(r.cpu);
    rss.push_back(r.rss_mb);
    rps.push_back(requests_per_rep / r.wall);
    ms.push_back(1e3 * r.wall);
  }
  out.end_to_end.set("wall_s", median(wall), "s");
  out.end_to_end.set("cpu_s", median(cpu), "s");
  out.end_to_end.set("peak_rss_mb", median(rss), "MiB");
  out.end_to_end.set("rps", median(rps), "req/s");
  // A batch run is one request per repetition: its latency sample is the
  // repetitions' wall clocks, so p95 is their maximum.
  out.end_to_end.set("req_p50_ms", median(ms), "ms");
  out.end_to_end.set("req_p95_ms", percentile(ms, 0.95), "ms");
  std::fprintf(stderr, "perfbench: %zu timed repetition(s)\n", reps.size());
}

void set_scheduler_layers(Outcome& out, const SchedulerStats& st, double wall) {
  std::uint64_t busy_ns = 0;
  for (const std::uint64_t ns : st.worker_busy_ns) busy_ns += ns;
  const double busy = 1e-9 * static_cast<double>(busy_ns);
  out.per_layer.set("sched.busy_s", busy, "s");
  out.per_layer.set("sched.idle_s", static_cast<double>(kWorkers) * wall - busy, "s");
  out.per_layer.set("sched.steal_ratio", st.steal_ratio(), "ratio");
  out.per_layer.set("sched.tasks", static_cast<double>(st.popped + st.stolen + st.injected),
                    "count");
}

void set_cache_layers(Outcome& out, const util::CacheStats& before,
                      const util::CacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  out.per_layer.set("cache.hits", hits, "count");
  out.per_layer.set("cache.misses", misses, "count");
  out.per_layer.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                    "ratio");
  out.per_layer.set("cache.evictions", static_cast<double>(after.evictions - before.evictions),
                    "count");
}

/// Copy the replay's layer metrics in, compare its digest with the timed
/// run's and record the tracing overhead.
void take_replay(Outcome& out, const Replay& replay, std::uint64_t timed_digest,
                 double timed_wall) {
  for (const auto& [name, value] : replay.layers.items()) {
    out.per_layer.set(name, value.first, value.second);
  }
  out.per_layer.set("trace.overhead_s", replay.wall_s - timed_wall, "s");
  const std::uint64_t replay_digest = verdict_digest(replay.variables);
  if (replay_digest != timed_digest) {
    out.fail("traced replay digest " + hex64(replay_digest) + " != timed digest " +
             hex64(timed_digest));
  }
  std::fprintf(stderr, "perfbench: traced replay %.3f s, digest %s\n", replay.wall_s,
               hex64(replay_digest).c_str());
}

/// Shared body of the two in-core batch workloads.
Outcome run_batch(const Args& args, const std::string& name, const core::SuiteConfig& config,
                  const std::function<std::vector<std::string>(
                      const climate::EnsembleGenerator&)>& choose) {
  Outcome out;
  Rig rig = set_up(reduced_spec(), out);
  const std::vector<std::string> variables = choose(*rig.gen);

  std::vector<Rep> reps;
  std::optional<std::uint64_t> digest;
  core::SuiteResults results;
  SchedulerStats sched_stats;
  util::CacheStats cache_before, cache_after;
  Stopwatch window;
  do {
    reset_ensemble_cache();
    rig.sched->scheduler().reset_stats();
    cache_before = core::EnsembleCache::global().memory_stats();
    util::reset_peak_rss();
    const double cpu0 = cpu_seconds();
    Stopwatch sw;
    results = core::run_suite(*rig.gen, config, variables);
    Rep rep;
    rep.wall = sw.seconds();
    rep.cpu = cpu_seconds() - cpu0;
    rep.rss_mb = mib(util::peak_rss_bytes());
    reps.push_back(rep);
    sched_stats = rig.sched->scheduler().stats();
    cache_after = core::EnsembleCache::global().memory_stats();

    const std::uint64_t d = verdict_digest(results.variables);
    if (digest.has_value() && *digest != d) out.fail("repetitions disagree on the digest");
    digest = d;
    out.attempted += results.variables.size() * results.variant_names.size();
    out.failed += failed_cells(results);
  } while (another_rep(window, reps.size(), args.seconds));
  set_end_to_end(out, reps, static_cast<double>(variables.size()));

  // Correctness: the recorded anchor slice, and for the default seed the
  // whole timed result.
  core::SuiteConfig anchor = config;
  anchor.member_seed = member_seed_for(kDefaultSeed);
  check_reference(args, name + ".anchor",
                  verdict_digest(core::run_suite(*rig.gen, anchor, {"FSDSC", "CCN3"}).variables),
                  out);
  if (args.seed == kDefaultSeed) check_reference(args, name + ".seed1", *digest, out);

  if (args.trace) {
    set_scheduler_layers(out, sched_stats, reps.back().wall);
    set_cache_layers(out, cache_before, cache_after);
    const Replay replay = replay_batch(*rig.gen, config, variables,
                                       args.workdir + "/spans-" + name + ".json");
    take_replay(out, replay, *digest, reps.back().wall);
  }
  return out;
}

}  // namespace

Outcome run_table6_bias(const Args& args) {
  core::SuiteConfig config;
  config.run_bias = true;
  config.member_seed = member_seed_for(args.seed);
  return run_batch(args, "table6_bias", config, [&](const climate::EnsembleGenerator& ens) {
    return table6_variables(ens.catalog(), args.seed);
  });
}

Outcome run_screen_nobias(const Args& args) {
  core::SuiteConfig config;
  config.run_bias = false;
  config.member_seed = member_seed_for(args.seed);
  return run_batch(args, "screen_nobias", config, [](const climate::EnsembleGenerator& ens) {
    std::vector<std::string> all;
    for (const climate::VariableSpec& v : ens.catalog()) all.push_back(v.name);
    return all;
  });
}

Outcome run_stream_paper(const Args& args) {
  Outcome out;
  Rig rig = set_up(paper_spec(), out);
  const std::vector<std::string> variables = stream_variables(rig.gen->catalog(), args.seed);

  core::OocConfig ooc;
  ooc.memory_budget_bytes = kStreamBudgetBytes;
  ooc.parallel_variables = 0;
  ooc.reuse_spill = false;
  ooc.suite.run_bias = false;
  ooc.suite.member_seed = member_seed_for(args.seed);

  std::vector<Rep> reps;
  std::optional<std::uint64_t> digest;
  SchedulerStats sched_stats;
  double budget_peak_mb = 0.0;
  double reserve_waits = 0.0;
  Stopwatch window;
  do {
    // A fresh spill directory per repetition, removed afterwards.
    const std::string dir =
        args.workdir + "/spill-" + std::to_string(reps.size());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ooc.spill_dir = dir;
    util::MemoryBudget shared(kStreamBudgetBytes);
    ooc.shared_budget = &shared;
    reset_ensemble_cache();
    rig.sched->scheduler().reset_stats();
    util::reset_peak_rss();
    const double cpu0 = cpu_seconds();
    Stopwatch sw;
    const core::SuiteResults results = core::run_suite_streaming(*rig.gen, ooc, variables);
    Rep rep;
    rep.wall = sw.seconds();
    rep.cpu = cpu_seconds() - cpu0;
    rep.rss_mb = mib(util::peak_rss_bytes());
    reps.push_back(rep);
    sched_stats = rig.sched->scheduler().stats();
    budget_peak_mb = mib(shared.peak_logical_bytes());
    reserve_waits = static_cast<double>(shared.reserve_waits());
    ooc.shared_budget = nullptr;
    if (shared.charged_bytes() != 0) out.fail("shared budget did not balance to zero");
    std::filesystem::remove_all(dir);

    const std::uint64_t d = verdict_digest(results.variables);
    if (digest.has_value() && *digest != d) out.fail("repetitions disagree on the digest");
    digest = d;
    out.attempted += results.variables.size() * results.variant_names.size();
    out.failed += failed_cells(results);
  } while (another_rep(window, reps.size(), args.seconds));
  set_end_to_end(out, reps, static_cast<double>(variables.size()));

  const std::string anchor_dir = args.workdir + "/spill-anchor";
  std::filesystem::create_directories(anchor_dir);
  core::OocConfig anchor = ooc;
  anchor.spill_dir = anchor_dir;
  anchor.suite.member_seed = member_seed_for(kDefaultSeed);
  check_reference(args, "stream_paper.anchor",
                  verdict_digest(core::run_suite_streaming(*rig.gen, anchor, {"FSDSC"}).variables),
                  out);
  if (args.seed == kDefaultSeed) check_reference(args, "stream_paper.seed1", *digest, out);

  if (args.trace) {
    set_scheduler_layers(out, sched_stats, reps.back().wall);
    out.per_layer.set("mem.budget_peak_mb", budget_peak_mb, "MiB");
    out.per_layer.set("mem.reserve_waits", reserve_waits, "count");
    out.per_layer.set("mem.rss_gap_mb", reps.back().rss_mb - budget_peak_mb, "MiB");
    core::OocConfig replay_config = ooc;
    replay_config.spill_dir = anchor_dir;
    const Replay replay = replay_stream(*rig.gen, replay_config, variables,
                                        args.workdir + "/spans-stream_paper.json");
    take_replay(out, replay, *digest, reps.back().wall);
  }
  std::filesystem::remove_all(anchor_dir);
  return out;
}

namespace {

serve::VerifyRequest serve_request(const std::string& variable, std::uint64_t member_seed) {
  serve::VerifyRequest r;
  r.ensemble = reduced_spec();
  r.ensemble.members = kServeMembers;
  r.variable = variable;
  r.config.run_bias = false;
  r.config.member_seed = member_seed;
  return r;
}

/// One client request as observed from the client side.
struct Sent {
  std::size_t rank = 0;
  double ms = 0.0;
  bool ok = false;
  bool rejected = false;
  Bytes reply;
};

/// A running server with connected clients: what serve_mix sets up.
struct ServeRig {
  std::unique_ptr<ScopedScheduler> sched;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;

  void tear_down() {
    clients.clear();
    if (server != nullptr) server->stop();
    server.reset();
    sched.reset();
  }
};

}  // namespace

Outcome run_serve_mix(const Args& args) {
  Outcome out;
  const std::uint64_t member_seed = member_seed_for(args.seed);
  const std::vector<std::string> ranked = serve_ranking(climate::build_catalog(), args.seed);

  // Set-up: cold cache, server start, client connections, and the hot set
  // requested once (this builds the server's generator and fills the
  // ensemble cache with the popular variables).
  ServeRig rig;
  std::vector<double> total;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    rig.tear_down();
    reset_ensemble_cache();
    Stopwatch sw;
    rig.sched = std::make_unique<ScopedScheduler>(kWorkers);
    serve::ServerConfig cfg;
    cfg.max_inflight = 8;
    rig.server = std::make_unique<serve::Server>(cfg);
    rig.server->start();
    for (std::size_t c = 0; c < kServeClients; ++c) {
      rig.clients.push_back(serve::Client::connect_tcp("127.0.0.1", rig.server->port()));
      rig.clients.back().ping();
    }
    for (std::size_t r = 0; r < kServeHot; ++r) {
      (void)rig.clients[0].verify_raw(serve_request(ranked[r], member_seed));
    }
    total.push_back(sw.seconds());
  }
  out.end_to_end.set("setup_s", median(total), "s");

  // Closed loop: each client sends its next request when the previous
  // reply has arrived, until the measuring time is used.
  const auto before = rig.server->counters();
  const util::CacheStats cache_before = core::EnsembleCache::global().memory_stats();
  std::vector<std::vector<Sent>> sent(kServeClients);
  util::reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> last_reply_ns{0};
  for (std::size_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      Pcg32 rng(hash_combine(args.seed, 0xc11e47 + c));
      while (std::chrono::steady_clock::now() < deadline) {
        Sent s;
        s.rank = draw_rank(rng);
        Stopwatch sw;
        try {
          s.reply = rig.clients[c].verify_raw(serve_request(ranked[s.rank], member_seed));
          s.ok = true;
        } catch (const serve::RemoteError& e) {
          s.rejected = e.code() == serve::ErrorCode::kQueueFull;
        } catch (const Error&) {
        }
        s.ms = sw.millis();
        sent[c].push_back(std::move(s));
        const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
        std::int64_t prev = last_reply_ns.load();
        while (ns > prev && !last_reply_ns.compare_exchange_weak(prev, ns)) {
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = 1e-9 * static_cast<double>(last_reply_ns.load());
  const double cpu = cpu_seconds() - cpu0;
  const double rss_mb = mib(util::peak_rss_bytes());
  const auto after = rig.server->counters();
  const util::CacheStats cache_after = core::EnsembleCache::global().memory_stats();
  const auto delta = [&](const char* key) {
    const auto b = before.find(key);
    return static_cast<double>(after.at(key) - (b == before.end() ? 0 : b->second));
  };

  std::vector<double> ms;
  std::uint64_t errors = 0, rejected = 0;
  std::vector<std::uint8_t> requested(kServeVariables, 0);
  for (const auto& per_client : sent) {
    for (const Sent& s : per_client) {
      ++out.attempted;
      ms.push_back(s.ms);
      requested[s.rank] = 1;
      if (!s.ok) ++(s.rejected ? rejected : errors);
    }
  }
  out.failed += errors + rejected;
  const double requests = static_cast<double>(ms.size());
  out.end_to_end.set("wall_s", wall, "s");
  out.end_to_end.set("cpu_s", cpu, "s");
  out.end_to_end.set("peak_rss_mb", rss_mb, "MiB");
  out.end_to_end.set("rps", requests / wall, "req/s");
  out.end_to_end.set("req_p50_ms", percentile(ms, 0.50), "ms");
  // The highest percentile with at least ten samples beyond it.
  const double tail = std::min(0.95, 1.0 - 10.0 / std::max(requests, 10.0));
  out.end_to_end.set("req_p95_ms", percentile(ms, tail), "ms");
  std::fprintf(stderr, "perfbench: %zu requests, p95 taken at the %.3f quantile\n",
               ms.size(), tail);

  // Parity: every reply must equal the serialization of an in-process
  // run_suite of the same request, byte for byte.
  const climate::EnsembleGenerator local(serve_request("U", 0).ensemble);
  std::vector<Bytes> expected(kServeVariables);
  std::vector<core::VariableResult> expected_results(kServeVariables);
  for (std::size_t r = 0; r < kServeVariables; ++r) {
    if (requested[r] == 0 && args.seed != kDefaultSeed) continue;
    const serve::VerifyRequest request = serve_request(ranked[r], member_seed);
    core::SuiteResults results = core::run_suite(local, request.config, {request.variable});
    expected_results[r] = serve::filter_result(results.variables.at(0), request.variants);
    expected[r] = serve::serialize_variable_result(expected_results[r]);
  }
  std::uint64_t mismatches = 0;
  for (const auto& per_client : sent) {
    for (const Sent& s : per_client) {
      const Bytes& want = expected[s.rank];
      if (s.ok && (s.reply.size() != want.size() ||
                   std::memcmp(s.reply.data(), want.data(), want.size()) != 0)) {
        ++mismatches;
      }
    }
  }
  if (mismatches != 0) {
    out.failed += mismatches;
    out.fail(std::to_string(mismatches) + " replies differ from in-process run_suite");
  }
  core::SuiteConfig anchor = serve_request("FSDSC", member_seed_for(kDefaultSeed)).config;
  check_reference(args, "serve_mix.anchor",
                  verdict_digest(core::run_suite(local, anchor, {"FSDSC"}).variables), out);
  if (args.seed == kDefaultSeed) {
    check_reference(args, "serve_mix.seed1", verdict_digest(expected_results), out);
  }

  if (args.trace) {
    set_scheduler_layers(out, rig.sched->scheduler().stats(), wall);
    set_cache_layers(out, cache_before, cache_after);
    out.per_layer.set("serve.flights", delta("serve.flights"), "count");
    out.per_layer.set("serve.coalesce_ratio",
                      requests > 0 ? delta("serve.coalesced_joins") / requests : 0.0, "ratio");
    out.per_layer.set("serve.rejected", delta("serve.rejected_queue_full"), "count");
    std::vector<double> ping_ms;
    for (int i = 0; i < 200; ++i) {
      Stopwatch sw;
      rig.clients[0].ping();
      ping_ms.push_back(sw.millis());
    }
    out.per_layer.set("serve.ping_ms", median(ping_ms), "ms");

    // Replay every request of the window, the clients' turns interleaved.
    std::vector<std::string> sequence;
    for (std::size_t i = 0; sequence.size() < ms.size(); ++i) {
      for (const auto& per_client : sent) {
        if (i < per_client.size()) sequence.push_back(ranked[per_client[i].rank]);
      }
    }
    const Replay replay = replay_serve(local, serve_request("U", member_seed).config, sequence,
                                       args.workdir + "/spans-serve_mix.json");
    // The timed digest comes from the server's own replies.
    std::vector<core::VariableResult> timed;
    for (const core::VariableResult& v : replay.variables) {
      for (const auto& per_client : sent) {
        const auto it = std::find_if(per_client.begin(), per_client.end(), [&](const Sent& s) {
          return s.ok && ranked[s.rank] == v.variable;
        });
        if (it != per_client.end()) {
          timed.push_back(serve::parse_variable_result(it->reply));
          break;
        }
      }
    }
    take_replay(out, replay, verdict_digest(timed), wall);
  }
  rig.tear_down();
  return out;
}

}  // namespace perfbench
