// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--reference FILE] [--record]
//
// Runs one workload (table6_bias, screen_nobias, stream_paper, serve_mix),
// checks its outputs, prints the host record and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics of the traced replay. Exit status is 0 only when
// every correctness check passed. perfbench/run.py builds and runs it.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "replay.h"
#include "util/memory.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--workdir DIR] [--reference FILE] [--record]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--reference") {
      a.reference = value;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0) usage();
  return a;
}

void print_result(const Outcome& out, bool trace) {
  Metrics metrics;
  if (trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      metrics.set(name, out.per_layer.get(name), unit);
    }
  } else {
    metrics = out.end_to_end;
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.items()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            value.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const bool rss_reset = cesm::util::reset_peak_rss();
    Outcome out;
    if (args.workload == "table6_bias") {
      out = run_table6_bias(args);
    } else if (args.workload == "screen_nobias") {
      out = run_screen_nobias(args);
    } else if (args.workload == "stream_paper") {
      out = run_stream_paper(args);
    } else if (args.workload == "serve_mix") {
      out = run_serve_mix(args);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.record) return out.correct ? 0 : 1;
    out.per_layer.set("fail_ratio",
                      out.attempted == 0 ? 0.0
                                         : static_cast<double>(out.failed) /
                                               static_cast<double>(out.attempted),
                      "ratio");
    std::printf("host %s\n", host_record_json(rss_reset).c_str());
    print_result(out, args.trace);
    std::fflush(stdout);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
