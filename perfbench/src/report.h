// One benchmark invocation: runs a workload for the requested seconds
// (untraced, or traced with the per-layer breakdown), applies the
// correctness gate and assembles the metrics the command prints.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric the untraced run prints, in order (all workloads).
const std::vector<MetricSpec>& EndToEndMetrics();
// Every metric the traced run prints, in order (all workloads; a layer a
// workload does not exercise reports 0).
const std::vector<MetricSpec>& PerLayerMetrics();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string work_dir = ".bench_build/work";
  // "workload scale seed digest" lines; empty = no recorded digests.
  std::string expected_path;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;  // name -> value
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // human-readable lines
  std::string digest;              // simulated-output digest of this seed
  bool digest_recorded = false;    // a recorded digest was compared
};

RunOutput RunBenchmark(const RunConfig& config);

// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunOutput& out, bool trace);

}  // namespace perfbench
