// Determinism of the batched waveform phy under every threading knob.
//
// Two independent axes can move work across threads: the runner's
// per-run worker pool (--threads) and SignalPhy's intra-run demodulation
// pool (demod_pool_threads). Both must be invisible in every output —
// the serialized slot-level trace is required to be byte-identical, and
// a completed run must leave no collision record open in the phy arena.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "core/factories.h"
#include "core/fcat.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "trace/binary.h"
#include "trace/recorder.h"

namespace anc {
namespace {

core::FcatSignalOptions SignalOptions(unsigned demod_pool) {
  core::FcatSignalOptions o;
  o.signal.snr_db = 25.0;
  o.signal.demod_pool_threads = demod_pool;
  return o;
}

// The serialized trace of a small closed experiment, the way
// `trace_inspect record` writes it.
std::string RecordedTrace(const core::FcatSignalOptions& options,
                          std::size_t n_tags, std::size_t runs,
                          std::uint64_t seed) {
  sim::ExperimentOptions eo;
  eo.n_tags = n_tags;
  eo.runs = runs;
  eo.base_seed = seed;
  trace::MultiRunRecorder recorder(eo.runs);
  eo.trace_factory = recorder.Factory();
  sim::RunExperiment(core::MakeFcatSignalFactory(options), eo);
  return trace::EncodeTrace(recorder.File());
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) digest = (digest ^ c) * 0x100000001b3ULL;
  return digest;
}

std::string TraceBytes(std::size_t threads, unsigned demod_pool) {
  sim::ExperimentOptions eo;
  eo.n_tags = 40;
  eo.runs = 3;
  eo.n_threads = threads;
  eo.max_slots_per_tag = 600;
  trace::MultiRunRecorder recorder(eo.runs);
  eo.trace_factory = recorder.Factory();
  sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(demod_pool)),
                     eo);
  return trace::EncodeTrace(recorder.File());
}

TEST(SignalTrace, ByteIdenticalAcrossThreadsAndDemodPool) {
  const std::string reference = TraceBytes(/*threads=*/1, /*demod_pool=*/0);
  ASSERT_GT(reference.size(), 16u);
  struct Config {
    std::size_t threads;
    unsigned demod_pool;
  };
  for (const Config& c :
       {Config{4, 0}, Config{1, 3}, Config{4, 2}}) {
    EXPECT_EQ(TraceBytes(c.threads, c.demod_pool), reference)
        << "threads=" << c.threads << " demod_pool=" << c.demod_pool;
  }
}

TEST(SignalTrace, GoldenReRecordsByteIdentical) {
  // tests/golden/fcat_signal_smoke.trace is `trace_inspect record
  // --protocol=fcat-signal --n=40 --runs=2 --seed=1`: synthesis, mixing,
  // noise, demodulation and subtraction must reproduce it bit for bit,
  // with and without the demodulation pool.
  std::ifstream in(std::string(ANC_GOLDEN_DIR) + "/fcat_signal_smoke.trace",
                   std::ios::binary);
  ASSERT_TRUE(in);
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  for (unsigned demod_pool : {0u, 2u}) {
    core::FcatSignalOptions o;
    o.signal.demod_pool_threads = demod_pool;
    EXPECT_TRUE(RecordedTrace(o, 40, 2, 1) == golden)
        << "demod_pool=" << demod_pool;
  }
}

TEST(SignalTrace, PhyKnobRunsMatchRecordedDigests) {
  // The golden runs the default phy only. These FNV-1a digests pin every
  // other waveform path bit for bit: timing jitter (offset mixing), CFO
  // (per-slot rotation of the cached unit frame), capture (demodulating a
  // raw mixture), least-squares and energy subtraction, and non-default
  // samples per bit. At 12 dB slot outcomes hinge on the exact noise, so
  // the trace digest moves with most sample-level changes; the reference
  // digest covers every stored waveform byte directly (singleton
  // receptions and subtraction residuals).
  struct Case {
    const char* name;
    void (*apply)(core::FcatSignalOptions*);
    std::uint64_t trace_digest;
    std::uint64_t reference_digest;
  };
  const Case cases[] = {
      {"default", [](core::FcatSignalOptions*) {}, 1426971739991363135ULL,
       12465858131291335652ULL},
      {"jitter",
       [](core::FcatSignalOptions* o) {
         o->signal.max_timing_jitter_samples = 2;
       },
       13981611636949024536ULL,
       5223213714751972714ULL},
      {"cfo",
       [](core::FcatSignalOptions* o) {
         o->signal.max_cfo_per_sample = 2e-4;
       },
       7049939801059471327ULL,
       7331285617909145960ULL},
      {"capture",
       [](core::FcatSignalOptions* o) { o->signal.enable_capture = true; },
       10452576415291242140ULL,
       8039829657262293374ULL},
      {"least-squares",
       [](core::FcatSignalOptions* o) {
         o->lambda = 3;
         o->signal.subtraction = signal::SubtractionMode::kLeastSquares;
       },
       4996843063349463281ULL,
       6749585977633922766ULL},
      {"energy",
       [](core::FcatSignalOptions* o) {
         o->signal.subtraction = signal::SubtractionMode::kEnergy;
       },
       4967825330216639523ULL,
       1800391642110987335ULL},
      {"spb4",
       [](core::FcatSignalOptions* o) { o->signal.samples_per_bit = 4; },
       6811533470826904892ULL,
       6237889468994908469ULL},
      {"spb16",
       [](core::FcatSignalOptions* o) { o->signal.samples_per_bit = 16; },
       11643466080159002486ULL,
       15128390798993797207ULL},
  };
  for (const Case& c : cases) {
    for (unsigned demod_pool : {0u, 2u}) {
      core::FcatSignalOptions o;
      o.signal.snr_db = 12.0;
      o.signal.demod_pool_threads = demod_pool;
      c.apply(&o);
      EXPECT_EQ(Fnv1a(RecordedTrace(o, 40, 2, 3)), c.trace_digest)
          << c.name << " demod_pool=" << demod_pool;

      Pcg32 pop_rng(3);
      const auto population = sim::MakePopulation(40, pop_rng);
      core::FcatOnSignal protocol(population, Pcg32(5), o);
      std::size_t guard = 0;
      while (!protocol.Finished() && ++guard < 600 * 40) protocol.Step();
      std::string references;
      for (std::uint32_t tag = 0; tag < population.size(); ++tag) {
        const auto ref = protocol.signal_phy().ReferenceFor(tag);
        const std::size_t samples = ref.size();
        references.append(reinterpret_cast<const char*>(&samples),
                          sizeof(samples));
        references.append(reinterpret_cast<const char*>(ref.data()),
                          ref.size() * sizeof(ref[0]));
      }
      EXPECT_EQ(Fnv1a(references), c.reference_digest)
          << c.name << " demod_pool=" << demod_pool;
    }
  }
}

TEST(SignalTrace, MetricsIdenticalWithDemodPool) {
  sim::ExperimentOptions eo;
  eo.n_tags = 60;
  eo.runs = 2;
  eo.max_slots_per_tag = 600;
  const auto serial =
      sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(0)), eo);
  const auto pooled =
      sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(3)), eo);
  EXPECT_EQ(serial.total_slots.mean(), pooled.total_slots.mean());
  EXPECT_EQ(serial.ids_from_collisions.mean(),
            pooled.ids_from_collisions.mean());
  EXPECT_EQ(serial.throughput.mean(), pooled.throughput.mean());
  EXPECT_EQ(serial.tags_read.mean(), pooled.tags_read.mean());
}

TEST(SignalTrace, NoOpenRecordsAfterCompletedRun) {
  // The batched API makes the engine responsible for releasing every
  // record handle it was issued; the arena must drain fully both with
  // and without the demodulation pool.
  for (unsigned demod_pool : {0u, 2u}) {
    Pcg32 pop_rng(11);
    const auto population = sim::MakePopulation(60, pop_rng);
    core::FcatOnSignal protocol(population, Pcg32(7),
                                SignalOptions(demod_pool));
    std::size_t guard = 0;
    while (!protocol.Finished() && ++guard < 600 * 60) protocol.Step();
    ASSERT_TRUE(protocol.Finished()) << "demod_pool=" << demod_pool;
    EXPECT_EQ(protocol.signal_phy().OpenRecords(), 0u)
        << "demod_pool=" << demod_pool;
    EXPECT_EQ(protocol.OpenPhyRecords(), 0u);
  }
}

}  // namespace
}  // namespace anc
