// swan_perfbench: measured host-time benchmark.
//
//   swan_perfbench --workload paper_hot|paper_cold|sparql_mixed --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//                  [--git COMMIT] [--source-digest HEX]
//
// Generates a Barton-like dataset from the seed, runs one workload at
// execution width 1, checks its outputs, prints every metric by name with
// its unit, and ends with one JSON result line. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant, writes the span
// file and reports the per-layer metrics. perfbench/run.py builds and
// calls this binary.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using swan::perfbench::Kind;
using swan::perfbench::MetricSet;
using swan::perfbench::RunConfig;
using swan::perfbench::RunResult;

struct Spec {
  std::string name;
  std::string unit;
  Kind kind;
};

std::vector<Spec> EndToEndSpecs() {
  return {
      {"setup_s", "s", Kind::kMeasured},
      {"geomean_ms", "ms", Kind::kMeasured},
      {"modeled_geomean_ms", "ms", Kind::kModeled},
      {"latency_p50_ms", "ms", Kind::kMeasured},
      {"latency_tail_ms", "ms", Kind::kMeasured},
      {"throughput_ops", "1/s", Kind::kMeasured},
      {"write_geomean_us", "us", Kind::kMeasured},
      {"peak_rss_mb", "MB", Kind::kMeasured},
      {"bytes_per_triple", "B", Kind::kCount},
      {"ok_rate", "ratio", Kind::kCount},
  };
}

std::vector<Spec> PerLayerSpecs() {
  const std::vector<std::string>& stores = swan::perfbench::AllStoreLabels();
  std::vector<Spec> specs = {{"bench_support.generate_s", "s", Kind::kMeasured}};
  for (const std::string& s : stores) {
    specs.push_back({"core.open_s." + s, "s", Kind::kMeasured});
  }
  for (const std::string& s : stores) {
    specs.push_back({"storage.disk_bytes." + s, "B", Kind::kCount});
  }
  for (const std::string& s : stores) {
    specs.push_back({"storage.bytes_read." + s, "B", Kind::kCount});
    specs.push_back({"storage.seeks." + s, "count", Kind::kCount});
    specs.push_back({"storage.io_ms." + s, "ms", Kind::kModeled});
    specs.push_back({"storage.pool_hit_ratio." + s, "ratio", Kind::kCount});
  }
  for (const std::string& s : stores) {
    if (s == "row_pso_small") continue;  // only served on sparql_mixed
    specs.push_back({"core.run_ms." + s, "ms", Kind::kMeasured});
  }
  for (const char* q : {"q1", "q2", "q2s", "q3", "q3s", "q4", "q4s", "q5",
                        "q6", "q6s", "q7", "q8"}) {
    specs.push_back({std::string("core.query_ms.") + q, "ms",
                     Kind::kMeasured});
  }
  const std::vector<Spec> rest = {
      {"core.offcpu_pct", "%", Kind::kMeasured},
      {"exec.morsels", "count", Kind::kCount},
      {"exec.parallel_regions", "count", Kind::kCount},
      {"net.bytes.col_vert_n2", "B", Kind::kCount},
      {"net.messages.col_vert_n2", "count", Kind::kCount},
      {"net.io_ms.col_vert_n2", "ms", Kind::kModeled},
      {"sparql.parse_us", "us", Kind::kMeasured},
      {"plan.optimize_us", "us", Kind::kMeasured},
      {"core.bgp_self_ms", "ms", Kind::kMeasured},
      {"core.match_ms", "ms", Kind::kMeasured},
      {"core.match_calls", "count", Kind::kCount},
      {"core.rows_examined_per_row", "ratio", Kind::kCount},
      {"serve.cache_hit_ratio", "ratio", Kind::kCount},
      {"serve.overhead_us", "us", Kind::kMeasured},
      {"serve.invalidations", "count", Kind::kCount},
      {"core.read_after_write_ms", "ms", Kind::kMeasured},
      {"obs.trace_overhead_pct", "%", Kind::kMeasured},
  };
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "swan_perfbench: %s\nusage: swan_perfbench --workload "
               "paper_hot|paper_cold|sparql_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--git COMMIT] "
               "[--source-digest HEX]\n",
               why);
  std::exit(2);
}

uint64_t ParseU64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') Usage(flag);
  return v;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = ParseU64(value, "bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(ParseU64(value, "bad --seconds"));
    } else if (flag == "--trace") {
      const uint64_t trace = ParseU64(value, "bad --trace");
      if (trace > 1) Usage("--trace must be 0 or 1");
      config.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--git") {
      config.fingerprint.git_commit = value;
    } else if (flag == "--source-digest") {
      config.fingerprint.source_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload != "paper_hot" && config.workload != "paper_cold" &&
      config.workload != "sparql_mixed") {
    Usage("--workload must be paper_hot, paper_cold or sparql_mixed");
  }
  if (!have_trace) Usage("--trace is required");
  if (config.seconds < 1) Usage("--seconds must be at least 1");
  if (config.trace && config.trace_out.empty()) {
    Usage("--trace 1 needs --trace-out");
  }
  return config;
}

// Pins the process to one CPU, the last one it may run on, before any
// thread starts, so the serve tier's workers inherit the mask. Execution
// width 1 with one request in flight keeps one core busy at a time
// anyway; pinning removes the cross-core wake-ups of every served
// request, whose latency on a shared VM swung throughput by 2x between
// runs of one seed. Returns the CPU, or -1 if the mask cannot be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config = ParseArgs(argc, argv);
  const int pinned_cpu = PinToOneCpu();
  const std::string git = config.fingerprint.git_commit;
  const std::string digest = config.fingerprint.source_digest;
  config.fingerprint = swan::perfbench::HostFingerprint();
  config.fingerprint.git_commit = git.empty() ? "unknown" : git;
  config.fingerprint.source_digest = digest.empty() ? "unknown" : digest;
  config.fingerprint.seed = config.seed;
  config.fingerprint.triples = swan::perfbench::kTriples;
  config.fingerprint.workload = config.workload;
  config.fingerprint.trace = config.trace;
  config.fingerprint.pinned_cpu = pinned_cpu;
  std::printf("fingerprint: %s\n", config.fingerprint.Json().c_str());
  if (!config.fingerprint.release) {
    std::printf("WARNING: %s build, not Release: timings are not "
                "comparable\n",
                config.fingerprint.build_type.c_str());
  }

  RunResult result = config.workload == "sparql_mixed"
                         ? swan::perfbench::RunMixed(config)
                         : swan::perfbench::RunPaper(
                               config, config.workload == "paper_hot");

  std::printf("host speed: %zu probes of the reference kernel, median "
              "factor %.4f (timings are reported at reference host speed: "
              "the measured value times the factor around it)\n",
              result.speed.probes(), result.speed.RunFactor());
  if (!config.trace) {
    // The host-speed kernel's buffers are the benchmark's, not the
    // program's.
    result.values["peak_rss_mb"] =
        result.rss.peak_mb() -
        static_cast<double>(result.speed.buffer_bytes()) / (1024.0 * 1024.0);
    result.values["ok_rate"] =
        result.attempted > 0
            ? static_cast<double>(result.attempted - result.failed) /
                  static_cast<double>(result.attempted)
            : 0.0;
  }
  MetricSet metrics;
  for (const Spec& spec : config.trace ? PerLayerSpecs() : EndToEndSpecs()) {
    // A metric the workload leaves idle reads 0.
    const auto it = result.values.find(spec.name);
    metrics.Add(spec.name, it != result.values.end() ? it->second : 0.0,
                spec.unit, spec.kind);
  }
  metrics.Print(config.trace ? "per-layer metrics (traced run):"
                             : "end-to-end metrics (tracing off):");
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("error_rate: %.6f (%llu failed of %llu attempted)\n",
              error_rate, static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  if (config.trace) {
    const std::string header =
        "{\"fingerprint\": " + config.fingerprint.Json() + ", " +
        result.trace_header + "}";
    if (result.spans == nullptr ||
        !result.spans->Write(config.trace_out, header)) {
      std::fprintf(stderr, "swan_perfbench: cannot write span file %s\n",
                   config.trace_out.c_str());
      return 1;
    }
    std::printf("span file: %s (%zu spans)\n", config.trace_out.c_str(),
                result.spans->spans().size());
  }
  const bool correct =
      result.checks_passed && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n",
              metrics.ResultJson(correct, result.attempted, result.failed)
                  .c_str());
  return 0;
}
