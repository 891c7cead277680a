// perfbench — the repo benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--scale full|small] [--work-dir DIR] [--expected FILE]
//
// Runs workload W (paper-ideal | signal-fcat | soak-store | deploy-scale)
// for S seconds at one worker thread and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer breakdown with --trace 1. Exit code 0 only
// when the run completed; an incorrect run still prints its result.
//
//   perfbench --record --workload W --scale full|small --seeds A-B
//
// prints "W scale seed digest" lines for recording in expected_digests.txt.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--scale full|small] [--work-dir DIR] [--expected FILE]\n"
               "       perfbench --record --workload W --scale full|small "
               "--seeds A-B [--work-dir DIR]\n"
               "workloads: paper-ideal signal-fcat soak-store deploy-scale\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool record = false;
  std::string seeds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--scale") {
      config.small = value() == "small";
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--expected") {
      config.expected_path = value();
    } else if (arg == "--record") {
      record = true;
    } else if (arg == "--seeds") {
      seeds = value();
    } else {
      return Usage();
    }
  }
  if (config.workload.empty()) return Usage();

  if (record) {
    const auto dash = seeds.find('-');
    if (dash == std::string::npos) return Usage();
    const auto lo = std::strtoull(seeds.substr(0, dash).c_str(), nullptr, 10);
    const auto hi = std::strtoull(seeds.substr(dash + 1).c_str(), nullptr, 10);
    for (auto seed = lo; seed <= hi; ++seed) {
      auto w = perfbench::MakeWorkload(config.workload, seed, config.small,
                                       config.work_dir);
      if (!w) return Usage();
      const perfbench::RepResult rep = w->Rep(nullptr, nullptr);
      if (rep.failed != 0) {
        std::fprintf(stderr, "seed %llu failed: %s\n",
                     static_cast<unsigned long long>(seed),
                     rep.errors.empty() ? "" : rep.errors[0].c_str());
        return 1;
      }
      std::printf("%s %s %llu %s\n", config.workload.c_str(),
                  config.small ? "small" : "full",
                  static_cast<unsigned long long>(seed), rep.digest.c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  const perfbench::RunOutput out = perfbench::RunBenchmark(config);
  if (out.metrics.empty()) {
    for (const std::string& e : out.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    return 1;
  }
  std::printf("perfbench %s seed %llu (%s, %s)\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced",
              config.small ? "small" : "full");
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  const auto& specs = config.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("  %-36s %.6g %s\n", out.metrics[i].first.c_str(),
                out.metrics[i].second, specs[i].unit);
  }
  std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("  digest %s (%s)\n", out.digest.c_str(),
              out.digest_recorded ? "matches recorded value"
                                  : "no recorded value for this seed");
  if (!out.correct) {
    std::printf("  digest check failed\n");
  }
  for (const std::string& e : out.errors) {
    std::printf("  error: %s\n", e.c_str());
  }
  // Provenance for the appended result log (perfbench/run.py).
  std::printf(
      "provenance {\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"threads\": 1, \"digest\": \"%s\", "
      "\"digest_recorded\": %s, \"errors\": %zu, \"first_error\": \"%s\"}\n",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), out.digest.c_str(),
      out.digest_recorded ? "true" : "false", out.errors.size(),
      out.errors.empty() ? "" : JsonEscape(out.errors[0]).c_str());
  std::printf("%s\n", perfbench::ResultJson(out, config.trace).c_str());
  return 0;
}
