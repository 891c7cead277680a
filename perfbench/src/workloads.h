// The benchmark's four workloads. Each one is a fixed amount of simulated
// work derived from the workload seed; Rep() performs it once and returns
// host timings plus a digest of every simulated output, so repeated reps,
// the traced variant and recorded seeds can be compared exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "span.h"
#include "timed.h"

namespace perfbench {

inline constexpr std::string_view kWorkloadNames[] = {
    "paper-ideal", "signal-fcat", "soak-store", "deploy-scale"};

// FNV-1a over the byte image of simulated outputs.
class Digest {
 public:
  void Bytes(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001B3ULL;
    }
  }
  void U64(std::uint64_t v) {
    Bytes(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  }
  std::string Hex() const;
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Soak-store variants: the workload proper records into the store with
// checkpoints; the traced run also times the two cheaper variants to
// report what tracing and checkpointing each add.
enum class Variant { kFull, kNoStore, kStoreNoCheckpoint };

struct RepResult {
  std::int64_t setup_ns = 0;  // host time before the timed work
  std::int64_t work_ns = 0;   // host time of the fixed work
  std::int64_t sim_ns = 0;    // part of work_ns spent simulating slots
  std::int64_t soak_ns = 0;   // soak-store: time inside the service runs

  std::uint64_t slots = 0;         // simulated air slots
  std::uint64_t sim_tags = 0;      // tags read (simulated)
  double sim_seconds = 0.0;        // simulated air time
  std::map<std::string, std::uint64_t> slots_by_protocol;
  std::map<std::string, std::uint64_t> tags_by_protocol;
  std::uint64_t ids_from_collisions = 0;  // FCAT cells

  std::uint64_t attempted = 0;  // operations (runs, queries)
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string digest;

  // Workload-specific observations (soak-store, deploy-scale).
  std::vector<double> query_us;
  std::map<std::string, double> extra;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition of the fixed work. With a tracer, the decorated
  // variant runs: spans and counters accumulate into tracer/counters.
  virtual RepResult Rep(Tracer* tracer, LayerCounters* counters,
                        Variant variant = Variant::kFull) = 0;
  // Traced run only: layer calls made and timed directly (outside the
  // traced rep), reported as per-layer metrics.
  virtual std::map<std::string, double> DirectLayerMetrics() { return {}; }
};

// `small` selects the reduced sizes the self-test uses; `work_dir` is where
// soak-store writes its store and checkpoints.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed, bool small,
                                       const std::string& work_dir);

}  // namespace perfbench
