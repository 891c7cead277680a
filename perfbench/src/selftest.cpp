// The benchmark's own tests (ctest: perfbench_selftest).
//
//   * TimedProtocol, TimedPhy and TimedSink are transparent: identical
//     RunMetrics and identical trace bytes with and without them.
//   * BenchFcat (the bench-assembled engine) is metric- and trace-identical
//     to core::Fcat and core::FcatOnSignal.
//   * Every workload, at small size, reproduces its recorded digest on two
//     seeds — the second one held out from tuning — untraced and traced.
//   * Every metric name the command prints appears in BENCHMARK.json, and
//     BENCHMARK.json lists no metric the command does not print.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/factories.h"
#include "fault/injector.h"
#include "report.h"
#include "sim/runner.h"
#include "store/container.h"
#include "timed.h"
#include "trace/sink.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using anc::sim::ProtocolFactory;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

std::string WorkDir() {
  const std::string dir = std::string(PERFBENCH_WORK_DIR);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string MetricsBytes(const anc::sim::RunMetrics& m) {
  std::string out;
  anc::sim::PutRunMetrics(out, m);
  return out;
}

// One traced run of `factory`: metrics bytes plus the recorded events.
struct Traced {
  std::string metrics;
  anc::trace::TraceFile file;
};
Traced RunTraced(const ProtocolFactory& factory, std::size_t n,
                 std::uint64_t seed) {
  anc::sim::ExperimentOptions options;
  options.n_tags = n;
  options.base_seed = seed;
  anc::trace::MemorySink sink;
  const auto result = anc::sim::RunSingle(factory, options, 0, &sink);
  return {MetricsBytes(result.metrics), sink.TakeFile()};
}

void ExpectSame(const Traced& a, const Traced& b, const std::string& what) {
  Check(a.metrics == b.metrics, what + ": RunMetrics differ");
  Check(a.file == b.file, what + ": trace events differ");
}

void TestTimedProtocolTransparent() {
  Tracer tracer;
  LayerCounters counters;
  const std::pair<const char*, ProtocolFactory> cases[] = {
      {"fcat2", anc::core::MakeFcatFactory(anc::core::FcatOptions{})},
      {"dfsa", anc::core::MakeDfsaFactory()},
      {"crdsa2", anc::core::MakeCrdsaFactory()},
      {"irsa", anc::core::MakeIrsaFactory()},
      {"seeded", anc::core::MakeSeededFactory()},
  };
  for (const auto& [key, factory] : cases) {
    const ProtocolFactory timed = MakeTimedFactory(
        factory, &tracer, &counters, TimedProtocolSpans{"protocol.x"});
    for (std::uint64_t seed : {3u, 11u}) {
      ExpectSame(RunTraced(factory, 400, seed), RunTraced(timed, 400, seed),
                 std::string("TimedProtocol ") + key);
    }
  }
  Check(tracer.Get("protocol.x").count > 0, "TimedProtocol recorded no spans");
}

void TestBenchFcatIdentical() {
  Tracer tracer;
  LayerCounters counters;
  for (unsigned lambda : {2u, 3u, 4u}) {
    anc::core::FcatOptions o;
    o.lambda = lambda;
    const ProtocolFactory lib = anc::core::MakeFcatFactory(o);
    for (std::uint64_t seed : {5u, 90210u}) {
      const Traced want = RunTraced(lib, 700, seed);
      ExpectSame(want,
                 RunTraced(MakeBenchFcatFactory(o, &tracer, &counters), 700,
                           seed),
                 "BenchFcat+TimedPhy FCAT-" + std::to_string(lambda));
      ExpectSame(want,
                 RunTraced(MakeBenchFcatFactory(o, nullptr, nullptr), 700,
                           seed),
                 "BenchFcat FCAT-" + std::to_string(lambda));
    }
  }
  anc::core::FcatOptions chaos;
  chaos.fault = *anc::fault::FaultProfile("chaos");
  ExpectSame(RunTraced(anc::core::MakeFcatFactory(chaos), 500, 7),
             RunTraced(MakeBenchFcatFactory(chaos, &tracer, &counters), 500, 7),
             "BenchFcat+TimedPhy FCAT-2@chaos");

  anc::core::FcatSignalOptions s;
  s.signal.snr_db = 25.0;
  for (std::uint64_t seed : {2u, 90210u}) {
    ExpectSame(RunTraced(anc::core::MakeFcatSignalFactory(s), 60, seed),
               RunTraced(MakeBenchFcatSignalFactory(s, &tracer, &counters), 60,
                         seed),
               "BenchFcat+TimedPhy FCAT-2-signal");
  }
  Check(counters.observed_slots > 0 && counters.resolve_requests > 0,
        "TimedPhy saw no phy calls");
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void TestTimedSinkTransparent() {
  Tracer tracer;
  LayerCounters counters;
  const ProtocolFactory factory = anc::core::MakeIrsaFactory();
  anc::sim::ExperimentOptions options;
  options.n_tags = 500;
  options.base_seed = 17;
  const std::string a = WorkDir() + "/sink-plain.ancs";
  const std::string b = WorkDir() + "/sink-timed.ancs";
  {
    anc::store::StoreFileSink sink(a);
    for (std::size_t run = 0; run < 3; ++run) {
      anc::sim::RunSingle(factory, options, run, &sink);
    }
    Check(sink.Finish().empty(), "plain store finish");
  }
  {
    anc::store::StoreFileSink sink(b);
    TimedSink timed(&sink, &tracer, &counters);
    for (std::size_t run = 0; run < 3; ++run) {
      anc::sim::RunSingle(factory, options, run, &timed);
    }
    Check(sink.Finish().empty(), "timed store finish");
  }
  const std::string plain = FileBytes(a);
  Check(!plain.empty() && plain == FileBytes(b),
        "TimedSink: store bytes differ");
  Check(counters.sink_events > 0, "TimedSink counted no events");
  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

void TestWorkloadsOnTwoSeeds() {
  const std::string expected = std::string(PERFBENCH_DIR) +
                               "/expected_digests.txt";
  for (std::string_view workload : kWorkloadNames) {
    for (std::uint64_t seed : {1u, 90210u}) {
      for (bool trace : {false, true}) {
        RunConfig c;
        c.workload = std::string(workload);
        c.seed = seed;
        c.seconds = 0.0;
        c.trace = trace;
        c.small = true;
        c.work_dir = WorkDir() + "/" + c.workload;
        c.expected_path = expected;
        const RunOutput out = RunBenchmark(c);
        const std::string what = c.workload + " seed " + std::to_string(seed) +
                                 (trace ? " traced" : " untraced");
        Check(out.correct && out.failed == 0,
              what + ": " + (out.errors.empty() ? "incorrect" : out.errors[0]));
        Check(out.digest_recorded, what + ": no recorded digest");
        Check(out.attempted > 0, what + ": nothing attempted");
      }
    }
  }
}

// Names listed under `section` ("end_to_end" / "per_layer") in the JSON.
std::set<std::string> NamesIn(const std::string& json,
                              const std::string& section) {
  std::set<std::string> names;
  std::size_t pos = json.find("\"" + section + "\"");
  if (pos == std::string::npos) return names;
  const std::size_t end = json.find(']', pos);
  const std::string key = "\"name\": \"";
  for (pos = json.find(key, pos); pos != std::string::npos && pos < end;
       pos = json.find(key, pos)) {
    pos += key.size();
    names.insert(json.substr(pos, json.find('"', pos) - pos));
  }
  return names;
}

void TestMetricNamesInBenchmarkJson() {
  const std::string json =
      FileBytes(std::string(PERFBENCH_DIR) + "/../BENCHMARK.json");
  Check(!json.empty(), "BENCHMARK.json not found");
  for (const auto& [section, specs] :
       {std::pair{std::string("end_to_end"), &EndToEndMetrics()},
        std::pair{std::string("per_layer"), &PerLayerMetrics()}}) {
    std::set<std::string> printed;
    for (const MetricSpec& spec : *specs) printed.insert(spec.name);
    const std::set<std::string> listed = NamesIn(json, section);
    for (const std::string& name : printed) {
      Check(listed.count(name) == 1,
            "metric " + name + " is not listed under " + section);
    }
    for (const std::string& name : listed) {
      Check(printed.count(name) == 1,
            "BENCHMARK.json lists " + name + " which is never printed");
    }
  }
  // And what a run actually prints is exactly that list.
  RunConfig c;
  c.workload = "signal-fcat";
  c.seconds = 0.0;
  c.small = true;
  c.work_dir = WorkDir();
  for (bool trace : {false, true}) {
    c.trace = trace;
    const RunOutput out = RunBenchmark(c);
    const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
    Check(out.metrics.size() == specs.size(), "printed metric count");
    for (std::size_t i = 0; i < out.metrics.size() && i < specs.size(); ++i) {
      Check(out.metrics[i].first == specs[i].name,
            "printed metric " + out.metrics[i].first);
    }
  }
}

}  // namespace

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"TimedProtocolTransparent", TestTimedProtocolTransparent},
      {"BenchFcatIdentical", TestBenchFcatIdentical},
      {"TimedSinkTransparent", TestTimedSinkTransparent},
      {"WorkloadsOnTwoSeeds", TestWorkloadsOnTwoSeeds},
      {"MetricNamesInBenchmarkJson", TestMetricNamesInBenchmarkJson},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
