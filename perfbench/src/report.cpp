#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "span.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Protocol keys of the per-protocol step metrics.
const char* const kProtocolKeys[] = {"fcat2", "fcat3", "fcat4", "dfsa",
                                     "edfsa", "abs",   "aqs",   "crdsa2",
                                     "irsa",  "seeded", "fcat2-chaos"};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of a sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Peak resident set of this program. getrusage's ru_maxrss survives execve,
// so when a large parent (perfbench/run.py) forks and execs the benchmark
// it reports the parent's peak instead; VmHWM belongs to the new address
// space alone. getrusage remains the fallback where /proc is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Host-speed calibration for the end-to-end timings.
//
// The benchmark runs on shared machines. There the same binary on the same
// seed runs up to ~40% slower for tens of seconds at a time while
// neighbours load the host's memory system: a register-only loop barely
// moves, while a loop of random loads from a 4 MB table slows about as much
// as the workloads do. So that loop — ~30 ms of xorshift-indexed loads — is
// timed before every repetition and once after the last, and each
// repetition's times are scaled by kReferenceSeconds / (mean of its two
// neighbouring loop times). Timings are thus reported in reference seconds:
// what the repetition would take on a host that runs the loop in exactly
// 30 ms. The raw host medians are printed beside them. A change to the
// library moves the repetition and not the loop, so it shows in full.
class Calibration {
 public:
  static constexpr double kReferenceSeconds = 0.030;

  Calibration() : table_(std::size_t{1} << 19) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = i * 0x9E3779B97F4A7C15ULL;
    }
  }

  double KernelSeconds() {
    const std::int64_t t0 = NowNs();
    std::uint64_t x = 0x2545F4914F6CDD1DULL, acc = 0;
    const std::uint64_t mask = table_.size() - 1;
    for (int i = 0; i < 6000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += table_[x & mask];
    }
    sink_ = acc;
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

 private:
  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;
};

// Recorded digest for (workload, scale, seed), or empty.
std::string RecordedDigest(const RunConfig& c) {
  if (c.expected_path.empty()) return "";
  std::ifstream in(c.expected_path);
  std::string line;
  const std::string scale = c.small ? "small" : "full";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, sc, digest;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> sc >> seed >> digest)) continue;
    if (workload == c.workload && sc == scale && seed == c.seed) return digest;
  }
  return "";
}

void Absorb(RunOutput& out, const RepResult& rep) {
  out.attempted += rep.attempted;
  out.failed += rep.failed;
  for (const std::string& e : rep.errors) {
    if (out.errors.size() < 20) out.errors.push_back(e);
  }
}

void CheckDigest(RunOutput& out, const RepResult& rep, const char* what) {
  ++out.attempted;
  if (rep.digest != out.digest) {
    ++out.failed;
    out.errors.push_back(std::string(what) + " digest " + rep.digest +
                         " differs from " + out.digest);
  }
}

// Which layer a span's self time belongs to.
std::string LayerOf(const std::string& span, bool phy_separated) {
  if (span == "bench") return "bench";
  const std::string prefix = span.substr(0, span.find('.'));
  if (prefix == "protocol") {
    const std::string key = span.substr(span.find('.') + 1);
    const bool fcat = key == "fcat2" || key == "fcat3" || key == "fcat4";
    return fcat && phy_separated ? "core" : "protocol";
  }
  return prefix;
}

void TracedRun(const RunConfig& c, Workload& w, RunOutput& out) {
  Tracer tracer;
  LayerCounters counters;
  const int root = tracer.Intern("bench");
  const bool soak = c.workload == "soak-store";

  std::vector<double> plain_s, decorated_s;
  std::vector<double> soak_full, soak_store, soak_none;
  RepResult last;  // last decorated rep (deterministic fields)
  std::vector<double> query_us;
  std::map<std::string, double> extra_max;
  std::size_t reps = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(c.seconds * 1e9);
  do {
    const RepResult plain = w.Rep(nullptr, nullptr);
    Absorb(out, plain);
    CheckDigest(out, plain, "untraced rep");
    plain_s.push_back(static_cast<double>(plain.setup_ns + plain.work_ns) / 1e9);
    if (soak) soak_full.push_back(static_cast<double>(plain.soak_ns));

    const std::int64_t t0 = NowNs();
    tracer.Enter(root);
    last = w.Rep(&tracer, &counters);
    tracer.Exit();
    decorated_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    Absorb(out, last);
    CheckDigest(out, last, "traced rep");
    query_us.insert(query_us.end(), last.query_us.begin(), last.query_us.end());
    for (const auto& [k, v] : last.extra) {
      extra_max[k] = std::max(extra_max[k], v);
    }
    ++reps;

    if (soak) {
      const RepResult none = w.Rep(nullptr, nullptr, Variant::kNoStore);
      const RepResult store =
          w.Rep(nullptr, nullptr, Variant::kStoreNoCheckpoint);
      Absorb(out, none);
      Absorb(out, store);
      soak_none.push_back(static_cast<double>(none.soak_ns));
      soak_store.push_back(static_cast<double>(store.soak_ns));
    }
  } while (NowNs() < deadline);

  const double n = static_cast<double>(reps);
  auto total = [&](const char* s) {
    return static_cast<double>(tracer.Get(s).total_ns);
  };
  auto self = [&](const char* s) {
    return static_cast<double>(tracer.Get(s).self_ns);
  };
  auto count = [&](const char* s) {
    return static_cast<double>(tracer.Get(s).count);
  };
  const bool phy_separated = counters.observed_slots > 0;

  // Self time per layer; the shares sum to 1 over the root span.
  std::map<std::string, double> layer_self;
  for (std::size_t i = 0; i < tracer.names().size(); ++i) {
    layer_self[LayerOf(tracer.names()[i], phy_separated)] +=
        static_cast<double>(tracer.stats()[i].self_ns);
  }
  const double wall = total("bench");
  auto share = [&](const char* layer) {
    return Ratio(layer_self[layer], wall);
  };

  const double slots = static_cast<double>(last.slots) * n;
  auto proto_slots = [&](const std::string& key) {
    const auto it = last.slots_by_protocol.find(key);
    return it == last.slots_by_protocol.end()
               ? 0.0
               : static_cast<double>(it->second) * n;
  };
  double fcat_self = 0.0, fcat_total = 0.0, fcat_slots = 0.0, fcat_tags = 0.0;
  if (phy_separated) {
    for (const char* key : {"fcat2", "fcat3", "fcat4"}) {
      const std::string span = std::string("protocol.") + key;
      fcat_self += self(span.c_str());
      fcat_total += total(span.c_str());
      fcat_slots += proto_slots(key);
      const auto it = last.tags_by_protocol.find(key);
      if (it != last.tags_by_protocol.end()) {
        fcat_tags += static_cast<double>(it->second);
      }
    }
  }
  const double phy_total =
      total("phy.observe") + total("phy.resolve") + total("phy.release");

  std::map<std::string, double> m;
  m["sim.factory_ns_per_run"] = Ratio(total("sim.factory"), count("sim.factory"));
  m["sim.step_ns_per_slot"] = Ratio(total("sim.drive"), slots);
  m["sim.self_share"] = share("sim");
  m["core.self_ns_per_slot"] = Ratio(fcat_self, fcat_slots);
  m["core.ids_from_collisions_share"] =
      phy_separated ? Ratio(static_cast<double>(last.ids_from_collisions),
                            fcat_tags)
                    : 0.0;
  m["core.self_share"] = share("core");
  for (const char* key : kProtocolKeys) {
    const std::string span = std::string("protocol.") + key;
    m[span + ".ns_per_slot"] = Ratio(total(span.c_str()), proto_slots(key));
  }
  m["protocol.self_share"] = share("protocol");
  m["phy.observe_ns_per_slot"] =
      Ratio(total("phy.observe"), static_cast<double>(counters.observed_slots));
  m["phy.resolve_ns_per_request"] = Ratio(
      total("phy.resolve"), static_cast<double>(counters.resolve_requests));
  m["phy.resolve_success_ratio"] =
      Ratio(static_cast<double>(counters.resolve_successes),
            static_cast<double>(counters.resolve_requests));
  m["phy.open_records_peak"] = static_cast<double>(counters.open_records_peak);
  m["phy.share_of_step"] = Ratio(phy_total, fcat_total);
  m["phy.self_share"] = share("phy");

  const double store_events = extra_max["store.events"];
  const double soak_slots = soak ? slots / n : 0.0;
  m["trace.events_per_slot"] = Ratio(store_events, soak_slots);
  m["trace.overhead_share"] =
      soak ? Ratio(Median(soak_store) - Median(soak_none), Median(soak_store))
           : 0.0;
  m["store.add_ns_per_event"] =
      Ratio(total("store.add"), static_cast<double>(counters.sink_events));
  m["store.compress_ratio"] =
      Ratio(extra_max["store.raw_bytes"], extra_max["store.stored_bytes"]);
  m["store.finish_ms"] = Ratio(total("store.finish"), n) / 1e6;
  m["store.open_ms"] = Ratio(total("store.open"), n) / 1e6;
  m["store.blocks_decoded_per_query"] =
      extra_max["store.blocks_decoded_per_query"];
  m["store.frame_query_churn_divergent"] =
      extra_max["store.frame_query_churn_divergent"];
  m["store.trace_bytes_per_event"] =
      Ratio(extra_max["store.file_bytes"], store_events);
  m["store.query_us_p50"] = Quantile(query_us, 0.50);
  m["store.query_us_p99"] = Quantile(query_us, 0.99);
  m["store.self_share"] = share("store");

  m["service.self_ns_per_slot"] = Ratio(self("service.run"), slots);
  m["service.churn_ns_per_event"] = Ratio(
      total("protocol.churn"), static_cast<double>(counters.churn_calls));
  m["service.rearm_ns_per_round"] = Ratio(
      total("protocol.rearm"), static_cast<double>(counters.rearm_calls));
  m["service.detect_p99_slots"] = extra_max["service.detect_p99_slots"];
  m["service.self_share"] = share("service");

  m["checkpoint.cuts"] = Ratio(static_cast<double>(counters.saves), n);
  m["checkpoint.protocol_bytes_max"] =
      static_cast<double>(counters.save_bytes_max);
  m["checkpoint.save_ns_per_cut"] = Ratio(
      total("checkpoint.cut"), static_cast<double>(counters.saves));
  m["checkpoint.file_bytes_max"] = extra_max["checkpoint.file_bytes_max"];
  m["checkpoint.overhead_share"] =
      soak ? Ratio(Median(soak_full) - Median(soak_store), Median(soak_full))
           : 0.0;
  m["checkpoint.self_share"] = share("checkpoint");
  m["fault.records_evicted"] = extra_max["fault.records_evicted"];
  m["fault.reader_crashes"] = extra_max["fault.reader_crashes"];

  m["deploy.self_ns_per_global_slot"] =
      Ratio(self("deploy.step"), extra_max["deploy.global_slots"] * n);
  m["deploy.busy_reader_share"] = extra_max["deploy.busy_reader_share"];
  m["deploy.self_share"] = share("deploy");
  for (const auto& [k, v] : w.DirectLayerMetrics()) m[k] = v;

  m["bench.unattributed_share"] = share("bench");
  m["bench.timer_overhead_share"] =
      Ratio(Median(decorated_s) - Median(plain_s), Median(plain_s));

  for (const MetricSpec& spec : PerLayerMetrics()) {
    out.metrics.emplace_back(spec.name, m[spec.name]);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "traced reps %zu: traced wall %.3f s/rep vs untraced %.3f s/rep",
                reps, Median(decorated_s), Median(plain_s));
  out.notes.push_back(line);
  if (store_events > 0.0) {
    std::snprintf(line, sizeof line,
                  "TimedSink saw %.0f of %.0f store events per rep (the rest "
                  "are service-emitted)",
                  static_cast<double>(counters.sink_events) / n, store_events);
    out.notes.push_back(line);
  }
}

void UntracedRun(const RunConfig& c, Workload& w, const RepResult& warm,
                 double warm_rss_mb, RunOutput& out) {
  Calibration calibration;
  std::vector<double> kernel_s = {calibration.KernelSeconds()};
  std::vector<RepResult> reps;
  std::vector<double> query_us;
  std::map<std::string, double> extra = warm.extra;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(c.seconds * 1e9);
  do {
    RepResult rep = w.Rep(nullptr, nullptr);
    kernel_s.push_back(calibration.KernelSeconds());
    Absorb(out, rep);
    CheckDigest(out, rep, "timed rep");
    query_us.insert(query_us.end(), rep.query_us.begin(), rep.query_us.end());
    reps.push_back(std::move(rep));
  } while (NowNs() < deadline || reps.size() < 3);

  // Per repetition: raw host seconds and reference seconds.
  std::vector<double> work_s, setup_s, sim_s, raw_work_s;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const double scale = Calibration::kReferenceSeconds /
                         (0.5 * (kernel_s[i] + kernel_s[i + 1]));
    raw_work_s.push_back(static_cast<double>(reps[i].work_ns) / 1e9);
    work_s.push_back(raw_work_s.back() * scale);
    setup_s.push_back(static_cast<double>(reps[i].setup_ns) / 1e9 * scale);
    sim_s.push_back(static_cast<double>(reps[i].sim_ns) / 1e9 * scale);
  }

  const double wall = Median(work_s);
  std::map<std::string, double> m;
  // Throughput over the slot-simulating part of the work (soak-store's
  // work also holds its store read phase; wall_s covers both).
  m["slots_per_s"] = Ratio(static_cast<double>(warm.slots), Median(sim_s));
  m["wall_s"] = wall;
  m["setup_s"] = Median(setup_s);
  // Peak RSS over set-up plus one repetition of the fixed work (the
  // warm-up): later repetitions only add allocator churn, whose high-water
  // mark would otherwise grow with the number of repetitions run.
  m["peak_rss_mb"] = warm_rss_mb;
  m["sim_tags_per_s"] = Ratio(static_cast<double>(warm.sim_tags), warm.sim_seconds);
  for (const MetricSpec& spec : EndToEndMetrics()) {
    out.metrics.emplace_back(spec.name, m[spec.name]);
  }

  char line[240];
  std::snprintf(line, sizeof line,
                "reps %zu; simulated slots %llu per rep; wall quartiles "
                "%.4f/%.4f/%.4f reference s (raw host %.4f/%.4f/%.4f s); "
                "calibration kernel median %.2f ms (reference %.0f ms)",
                reps.size(), static_cast<unsigned long long>(warm.slots),
                Quantile(work_s, 0.25), wall, Quantile(work_s, 0.75),
                Quantile(raw_work_s, 0.25), Median(raw_work_s),
                Quantile(raw_work_s, 0.75), Median(kernel_s) * 1e3,
                Calibration::kReferenceSeconds * 1e3);
  out.notes.push_back(line);
  if (c.workload == "soak-store") {
    // The store-side numbers this workload alone produces (unbounded;
    // the traced run reports them as per-layer metrics too).
    std::snprintf(line, sizeof line,
                  "detect_p99_slots %.2f slots; trace_bytes_per_event %.3f "
                  "bytes; query_us_p50 %.2f us; query_us_p99 %.2f us "
                  "(%zu queries)",
                  extra["service.detect_p99_slots"],
                  Ratio(extra["store.file_bytes"], extra["store.events"]),
                  Quantile(query_us, 0.5), Quantile(query_us, 0.99),
                  query_us.size());
    out.notes.push_back(line);
  }
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"slots_per_s", "1/s"},     {"wall_s", "s"},
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"sim_tags_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"sim.factory_ns_per_run", "ns"},
        {"sim.step_ns_per_slot", "ns"},
        {"sim.self_share", "ratio"},
        {"core.self_ns_per_slot", "ns"},
        {"core.ids_from_collisions_share", "ratio"},
        {"core.self_share", "ratio"},
    };
    static const std::vector<std::string> names = [] {
      std::vector<std::string> v;
      for (const char* key : kProtocolKeys) {
        v.push_back(std::string("protocol.") + key + ".ns_per_slot");
      }
      return v;
    }();
    for (const std::string& name : names) s.push_back({name.c_str(), "ns"});
    const std::vector<MetricSpec> rest = {
        {"protocol.self_share", "ratio"},
        {"phy.observe_ns_per_slot", "ns"},
        {"phy.resolve_ns_per_request", "ns"},
        {"phy.resolve_success_ratio", "ratio"},
        {"phy.open_records_peak", "count"},
        {"phy.share_of_step", "ratio"},
        {"phy.self_share", "ratio"},
        {"trace.events_per_slot", "events/slot"},
        {"trace.overhead_share", "ratio"},
        {"store.add_ns_per_event", "ns"},
        {"store.compress_ratio", "ratio"},
        {"store.write_mb_per_s", "MB/s"},
        {"store.finish_ms", "ms"},
        {"store.open_ms", "ms"},
        {"store.blocks_decoded_per_query", "count"},
        {"store.frame_query_churn_divergent", "count"},
        {"store.trace_bytes_per_event", "bytes"},
        {"store.query_us_p50", "us"},
        {"store.query_us_p99", "us"},
        {"store.self_share", "ratio"},
        {"service.self_ns_per_slot", "ns"},
        {"service.churn_ns_per_event", "ns"},
        {"service.rearm_ns_per_round", "ns"},
        {"service.detect_p99_slots", "slots"},
        {"service.self_share", "ratio"},
        {"checkpoint.cuts", "count"},
        {"checkpoint.protocol_bytes_max", "bytes"},
        {"checkpoint.save_ns_per_cut", "ns"},
        {"checkpoint.file_bytes_max", "bytes"},
        {"checkpoint.overhead_share", "ratio"},
        {"checkpoint.self_share", "ratio"},
        {"fault.records_evicted", "count"},
        {"fault.reader_crashes", "count"},
        {"deploy.place_tags_ms", "ms"},
        {"deploy.coverage_ms", "ms"},
        {"deploy.interference_graph_ms", "ms"},
        {"deploy.schedule_ms", "ms"},
        {"deploy.self_ns_per_global_slot", "ns"},
        {"deploy.busy_reader_share", "ratio"},
        {"deploy.self_share", "ratio"},
        {"bench.unattributed_share", "ratio"},
        {"bench.timer_overhead_share", "ratio"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

RunOutput RunBenchmark(const RunConfig& c) {
  RunOutput out;
  auto workload = MakeWorkload(c.workload, c.seed, c.small, c.work_dir);
  if (!workload) {
    out.correct = false;
    out.errors.push_back("unknown workload " + c.workload);
    return out;
  }
  // Warm-up rep: fills caches and lazy set-up, fixes the seed's digest.
  const RepResult warm = workload->Rep(nullptr, nullptr);
  const double warm_rss_mb = PeakRssMb();
  Absorb(out, warm);
  out.digest = warm.digest;

  const std::string recorded = RecordedDigest(c);
  if (!recorded.empty()) {
    out.digest_recorded = true;
    ++out.attempted;
    if (recorded != warm.digest) {
      ++out.failed;
      out.errors.push_back("digest " + warm.digest +
                           " differs from the recorded " + recorded);
    }
  }
  if (c.trace) {
    TracedRun(c, *workload, out);
  } else {
    UntracedRun(c, *workload, warm, warm_rss_mb, out);
  }
  out.correct = out.failed == 0;
  return out;
}

std::string ResultJson(const RunOutput& out, bool trace) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, out.attempted));
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    const char* unit = "";
    for (const MetricSpec& spec : specs) {
      if (name == spec.name) unit = spec.unit;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
         "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
