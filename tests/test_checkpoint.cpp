// Service checkpoint/restore: codec round-trips and fail-closed
// rejection, the committed golden checkpoint, and the headline
// crash-safety contract — a killed-and-resumed soak run produces
// byte-identical trace bytes and an identical SloReport to the
// uninterrupted run, for every checkpointable protocol family.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factories.h"
#include "core/fcat.h"
#include "deploy/deployment.h"
#include "fault/injector.h"
#include "service/checkpoint.h"
#include "sim/population.h"
#include "service/service.h"
#include "store/container.h"
#include "store/crc32.h"

namespace anc::service {
namespace {

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

ServiceCheckpoint SampleCheckpoint() {
  ServiceCheckpoint ckpt;
  ckpt.run_index = 3;
  ckpt.base_seed = 99;
  ckpt.n_initial = 40;
  ckpt.max_slots = 4000;
  ckpt.service_name = "FCAT-2~smoke";
  ckpt.slot = 1500;
  ckpt.service_blob = "service-state-bytes";
  ckpt.protocol_blob = std::string("\x00\x01\x02proto", 8);
  ckpt.writer_blob = "writer";
  return ckpt;
}

std::string ReportBlob(const SloReport& report) {
  std::string out;
  PutSloReport(out, report);
  return out;
}

TEST(CheckpointCodec, RoundTrip) {
  const ServiceCheckpoint ckpt = SampleCheckpoint();
  const std::string bytes = EncodeCheckpoint(ckpt);
  ServiceCheckpoint got;
  ASSERT_EQ(DecodeCheckpoint(bytes, &got), "");
  EXPECT_EQ(got.version, kCheckpointVersion);
  EXPECT_EQ(got.run_index, ckpt.run_index);
  EXPECT_EQ(got.base_seed, ckpt.base_seed);
  EXPECT_EQ(got.n_initial, ckpt.n_initial);
  EXPECT_EQ(got.max_slots, ckpt.max_slots);
  EXPECT_EQ(got.service_name, ckpt.service_name);
  EXPECT_EQ(got.slot, ckpt.slot);
  EXPECT_EQ(got.service_blob, ckpt.service_blob);
  EXPECT_EQ(got.protocol_blob, ckpt.protocol_blob);
  EXPECT_EQ(got.writer_blob, ckpt.writer_blob);
}

TEST(CheckpointCodec, RejectsEveryByteFlip) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  ServiceCheckpoint got;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_NE(DecodeCheckpoint(bad, &got), "") << "flip at byte " << i;
  }
}

TEST(CheckpointCodec, RejectsTruncation) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  ServiceCheckpoint got;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_NE(DecodeCheckpoint(bytes.substr(0, keep), &got), "")
        << "kept " << keep << " of " << bytes.size();
  }
}

// A future-version file must be rejected by this decoder even when its
// checksum is valid — the version gate, not the CRC, has to catch it.
TEST(CheckpointCodec, RejectsVersionBump) {
  std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  // Layout: 8-byte magic, then the version varint (a single byte while
  // the version is below 128), ..., 4-byte little-endian Crc32 trailer
  // over the rest.
  ASSERT_EQ(bytes[8], static_cast<char>(kCheckpointVersion));
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  const std::uint32_t crc =
      store::Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  ServiceCheckpoint got;
  EXPECT_NE(DecodeCheckpoint(bytes, &got), "");
}

TEST(CheckpointCodec, FileRoundTripAndAtomicity) {
  const std::string path = TempPath("ckpt_file_roundtrip.ckpt");
  ASSERT_EQ(WriteCheckpointFile(path, SampleCheckpoint()), "");
  // No .tmp litter: the write renamed it into place.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  ServiceCheckpoint got;
  ASSERT_EQ(ReadCheckpointFile(path, &got), "");
  EXPECT_EQ(got.service_name, "FCAT-2~smoke");
  std::remove(path.c_str());
}

TEST(SloReportFile, RoundTripAndRejectsCorruption) {
  const std::string path = TempPath("slo_roundtrip.slo");
  SloReport report;
  report.slots = 4000;
  report.epochs = 8;
  report.arrived = 31;
  report.detected = 29;
  report.detect_p99 = 321.5;
  ASSERT_EQ(WriteSloReportFile(path, report), "");
  SloReport got;
  ASSERT_EQ(ReadSloReportFile(path, &got), "");
  EXPECT_EQ(ReportBlob(got), ReportBlob(report));

  std::string bytes = Slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  Spit(path, bytes);
  EXPECT_NE(ReadSloReportFile(path, &got), "");
  std::remove(path.c_str());
}

struct ResumeCase {
  const char* label;
  sim::ProtocolFactory factory;
};

std::vector<ResumeCase> CheckpointableFactories() {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  return {{"fcat2", core::MakeFcatFactory(fcat)},
          {"irsa", core::MakeIrsaFactory()},
          {"seeded", core::MakeSeededFactory()}};
}

// The headline contract. For each protocol family and thread setting:
// run the soak uninterrupted, then run it again killed mid-flight and
// resumed from the last checkpoint — trace bytes and final report must
// be identical.
TEST(ResumableSoak, KilledAndResumedRunIsByteIdentical) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  store::StoreWriterOptions sopts;
  sopts.block_events = 256;
  sopts.sync = store::SyncPolicy::kFlush;

  for (const ResumeCase& c : CheckpointableFactories()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      SoakOptions options;
      options.n_initial = 20;
      options.runs = 1;
      options.base_seed = 11;
      options.n_threads = threads;

      const std::string ref_path = TempPath("resume_ref.ancs");
      const std::string torn_path = TempPath("resume_torn.ancs");
      const std::string ckpt_path = TempPath("resume.ckpt");

      // Reference: uninterrupted (checkpointing on — cutting checkpoints
      // must not change the trace bytes).
      auto ref_sink = std::make_unique<store::StoreFileSink>(ref_path, sopts);
      ResumableOptions ref_opts;
      ref_opts.checkpoint_every_epochs = 1;
      ref_opts.checkpoint_path = TempPath("resume_ref.ckpt");
      const SloReport ref_report = RunSoakResumable(
          c.factory, config, options, 0, ref_sink.get(), ref_opts);
      ASSERT_EQ(ref_sink->Finish(), "");

      // Killed run: dies at slot 1100 with no shutdown path at all.
      auto torn_sink =
          std::make_unique<store::StoreFileSink>(torn_path, sopts);
      ResumableOptions kill_opts;
      kill_opts.checkpoint_every_epochs = 1;
      kill_opts.checkpoint_path = ckpt_path;
      kill_opts.abort_before_slot = 1100;
      bool aborted = false;
      (void)RunSoakResumable(c.factory, config, options, 0, torn_sink.get(),
                             kill_opts, &aborted);
      ASSERT_TRUE(aborted);
      torn_sink.reset();  // no Finish: the file is left torn

      // Resume from the checkpoint and run to completion.
      ResumableOptions resume_opts;
      resume_opts.checkpoint_every_epochs = 1;
      resume_opts.checkpoint_path = ckpt_path;
      SloReport resumed_report;
      std::unique_ptr<store::StoreFileSink> resumed_sink;
      ASSERT_EQ(ResumeSoak(c.factory, config, options, 0, ckpt_path,
                           torn_path, sopts, resume_opts, &resumed_report,
                           &resumed_sink),
                "");
      ASSERT_NE(resumed_sink, nullptr);
      ASSERT_EQ(resumed_sink->Finish(), "");

      EXPECT_EQ(Slurp(torn_path), Slurp(ref_path)) << "trace bytes differ";
      EXPECT_EQ(ReportBlob(resumed_report), ReportBlob(ref_report));

      std::remove(ref_path.c_str());
      std::remove(torn_path.c_str());
      std::remove(ckpt_path.c_str());
      std::remove((TempPath("resume_ref.ckpt")).c_str());
    }
  }
}

TEST(ResumableSoak, RejectsFingerprintMismatch) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);

  SoakOptions options;
  options.n_initial = 16;
  options.runs = 1;
  options.base_seed = 21;

  const std::string ckpt_path = TempPath("fingerprint.ckpt");
  ResumableOptions kill_opts;
  kill_opts.checkpoint_every_epochs = 1;
  kill_opts.checkpoint_path = ckpt_path;
  kill_opts.abort_before_slot = 1100;
  bool aborted = false;
  (void)RunSoakResumable(factory, config, options, 0, nullptr, kill_opts,
                         &aborted);
  ASSERT_TRUE(aborted);

  SloReport report;
  ResumableOptions resume_opts;  // no abort: resumes run to completion
  // Wrong seed, wrong run index, wrong population: each must be refused.
  SoakOptions wrong = options;
  wrong.base_seed = 22;
  EXPECT_NE(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  EXPECT_NE(ResumeSoak(factory, config, options, 1, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  wrong = options;
  wrong.n_initial = 17;
  EXPECT_NE(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  // And the matching run resumes fine (untraced).
  EXPECT_EQ(ResumeSoak(factory, config, options, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  std::remove(ckpt_path.c_str());
}

// The committed golden checkpoints, both written by
// tools/make_crash_fixtures at slot 1000 of the same run:
// soak_resume.ckpt is regenerated by the current build (v2, windowed
// record arenas), and soak_resume_v1.ckpt is the frozen output of the
// v1 build (arenas from handle 0). Both must keep decoding and resuming —
// this is the compatibility gate a version bump has to pass.
struct GoldenCase {
  const char* file;
  std::uint64_t version;
};
constexpr GoldenCase kGoldenCheckpoints[] = {{"soak_resume.ckpt", 2},
                                             {"soak_resume_v1.ckpt", 1}};

TEST(GoldenCheckpoint, Decodes) {
  for (const GoldenCase& golden : kGoldenCheckpoints) {
    SCOPED_TRACE(golden.file);
    ServiceCheckpoint ckpt;
    ASSERT_EQ(ReadCheckpointFile(
                  std::string(ANC_GOLDEN_DIR) + "/" + golden.file, &ckpt),
              "");
    EXPECT_EQ(ckpt.version, golden.version);
    EXPECT_EQ(ckpt.run_index, std::uint64_t{0});
    EXPECT_EQ(ckpt.base_seed, std::uint64_t{7});
    EXPECT_EQ(ckpt.n_initial, std::uint64_t{24});
    EXPECT_EQ(ckpt.max_slots, std::uint64_t{4000});
    EXPECT_EQ(ckpt.service_name, "FCAT-2~smoke");
    EXPECT_EQ(ckpt.slot, std::uint64_t{1000});
    EXPECT_FALSE(ckpt.service_blob.empty());
    EXPECT_FALSE(ckpt.protocol_blob.empty());
    EXPECT_FALSE(ckpt.writer_blob.empty());
  }
}

// Resuming from each committed checkpoint + torn store reproduces the
// uninterrupted run byte-for-byte: old and current checkpoint bytes both
// restore onto the current build.
TEST(GoldenCheckpoint, ResumesByteIdentical) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 24;
  options.runs = 1;
  options.base_seed = 7;
  store::StoreWriterOptions sopts;
  sopts.block_events = 512;
  sopts.sync = store::SyncPolicy::kFlush;

  // Reference, computed fresh on this build.
  const std::string ref_path = TempPath("golden_ref.ancs");
  auto ref_sink = std::make_unique<store::StoreFileSink>(ref_path, sopts);
  ResumableOptions ref_opts;
  ref_opts.checkpoint_every_epochs = 2;
  ref_opts.checkpoint_path = TempPath("golden_ref.ckpt");
  const SloReport ref_report =
      RunSoakResumable(factory, config, options, 0, ref_sink.get(), ref_opts);
  ASSERT_EQ(ref_sink->Finish(), "");

  for (const GoldenCase& golden : kGoldenCheckpoints) {
    SCOPED_TRACE(golden.file);
    // Resume from the committed fixture pair.
    const std::string trace_path = TempPath("golden_resume.ancs");
    const std::string ckpt_path = TempPath("golden_resume.ckpt");
    Spit(trace_path,
         Slurp(std::string(ANC_GOLDEN_DIR) + "/soak_kill_boundary.ancs"));
    Spit(ckpt_path, Slurp(std::string(ANC_GOLDEN_DIR) + "/" + golden.file));

    ResumableOptions resume_opts;
    resume_opts.checkpoint_every_epochs = 2;
    resume_opts.checkpoint_path = ckpt_path;
    SloReport resumed_report;
    std::unique_ptr<store::StoreFileSink> resumed_sink;
    ASSERT_EQ(ResumeSoak(factory, config, options, 0, ckpt_path, trace_path,
                         sopts, resume_opts, &resumed_report, &resumed_sink),
              "");
    ASSERT_NE(resumed_sink, nullptr);
    ASSERT_EQ(resumed_sink->Finish(), "");

    EXPECT_EQ(Slurp(trace_path), Slurp(ref_path));
    EXPECT_EQ(ReportBlob(resumed_report), ReportBlob(ref_report));

    std::remove(trace_path.c_str());
    std::remove(ckpt_path.c_str());
  }
  std::remove(ref_path.c_str());
  std::remove(TempPath("golden_ref.ckpt").c_str());
}

void ExpectAggregateEq(const SoakAggregate& a, const SoakAggregate& b) {
  const auto eq = [](const RunningStats& x, const RunningStats& y) {
    const RunningStats::State sx = x.SaveState();
    const RunningStats::State sy = y.SaveState();
    EXPECT_EQ(sx.count, sy.count);
    EXPECT_EQ(sx.mean, sy.mean);
    EXPECT_EQ(sx.m2, sy.m2);
    EXPECT_EQ(sx.min, sy.min);
    EXPECT_EQ(sx.max, sy.max);
  };
  eq(a.detect_p50, b.detect_p50);
  eq(a.detect_p99, b.detect_p99);
  eq(a.staleness_p99, b.staleness_p99);
  eq(a.missed_rate, b.missed_rate);
  eq(a.ghost_rate, b.ghost_rate);
  eq(a.mean_population, b.mean_population);
  eq(a.arrived, b.arrived);
  eq(a.departed, b.departed);
  eq(a.detected, b.detected);
  eq(a.slots, b.slots);
  eq(a.rounds, b.rounds);
  EXPECT_EQ(a.missed_total, b.missed_total);
  EXPECT_EQ(a.ghost_detections_total, b.ghost_detections_total);
  EXPECT_EQ(a.suppressed_arrivals_total, b.suppressed_arrivals_total);
  EXPECT_EQ(a.conservation_failures, b.conservation_failures);
  EXPECT_EQ(a.open_records_after_shutdown, b.open_records_after_shutdown);
  EXPECT_EQ(a.churn_unsupported_runs, b.churn_unsupported_runs);
}

// Aggregate invariance: the experiment aggregate is identical at any
// thread count, and a fold of per-run reports where every run was
// killed and resumed reproduces it exactly. (elapsed_seconds is wall
// clock and deliberately excluded from the comparison.)
TEST(ResumableSoak, ThreadInvariantAggregateSurvivesKills) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));

  SoakOptions options;
  options.n_initial = 20;
  options.runs = 3;
  options.base_seed = 31;

  options.n_threads = 1;
  const SoakAggregate agg1 = RunSoakExperiment(factory, config, options);
  options.n_threads = 4;
  const SoakAggregate agg4 = RunSoakExperiment(factory, config, options);
  ExpectAggregateEq(agg1, agg4);

  // Every run killed at slot 1300 and resumed untraced, folded in run
  // order — the supervisor's merge path.
  SoakAggregate resumed_fold;
  for (std::size_t run = 0; run < options.runs; ++run) {
    const std::string ckpt_path =
        TempPath(("thread_inv_" + std::to_string(run) + ".ckpt").c_str());
    ResumableOptions kill_opts;
    kill_opts.checkpoint_every_epochs = 1;
    kill_opts.checkpoint_path = ckpt_path;
    kill_opts.abort_before_slot = 1300;
    bool aborted = false;
    (void)RunSoakResumable(factory, config, options, run, nullptr, kill_opts,
                           &aborted);
    ASSERT_TRUE(aborted);
    SloReport report;
    ResumableOptions resume_opts;  // no abort: runs to completion
    ASSERT_EQ(ResumeSoak(factory, config, options, run, ckpt_path, "", {},
                         resume_opts, &report),
              "");
    AccumulateSoak(resumed_fold, report);
    std::remove(ckpt_path.c_str());
  }
  ExpectAggregateEq(agg1, resumed_fold);

  // SoakAggregate::Merge: a two-shard split folds to the same totals.
  SoakAggregate left = resumed_fold;  // reuse: totals only need checking
  SoakAggregate right;
  SoakAggregate merged = left;
  merged.Merge(right);  // merging an empty aggregate is the identity
  ExpectAggregateEq(merged, left);
}

// ---- Windowed record arenas ----------------------------------------------

// What ProbeProtocol saw over one run.
struct ProbeLog {
  std::vector<std::uint64_t> round_starts;  // slot of each BeginInventoryRound
  std::vector<std::size_t> blob_bytes;      // protocol blob size per cut
  std::size_t rounds_checked = 0;           // boundaries with an Fcat inside
  std::size_t dirty_windows = 0;            // ... that left a window non-empty
};

// Forwards every sim::Protocol call to the wrapped protocol and logs the
// slot of each inventory-round boundary, the size of each checkpoint
// blob, and — when the wrapped protocol is an Fcat — whether the phy,
// tracker and ledger windows were all empty right after the boundary.
class ProbeProtocol final : public sim::Protocol {
 public:
  ProbeProtocol(std::unique_ptr<sim::Protocol> inner, ProbeLog* log)
      : inner_(std::move(inner)),
        fcat_(dynamic_cast<const core::Fcat*>(inner_.get())),
        log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  void Step() override {
    inner_->Step();
    ++slots_;
  }
  bool Finished() const override { return inner_->Finished(); }
  const sim::RunMetrics& metrics() const override {
    return inner_->metrics();
  }
  void AttachTrace(const trace::TraceContext& context) override {
    inner_->AttachTrace(context);
  }
  std::span<const TagId> LearnedThisStep() const override {
    return inner_->LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return inner_->InjectKnownId(id);
  }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool ArriveTag(const TagId& id) override { return inner_->ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return inner_->DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    const bool ok = inner_->BeginInventoryRound(refresh);
    log_->round_starts.push_back(slots_);
    if (fcat_ != nullptr) {
      const core::CollisionAwareEngine& engine = fcat_->engine();
      ++log_->rounds_checked;
      if (fcat_->ideal_phy().window_size() != 0 ||
          engine.tracker().window_size() != 0 ||
          (engine.ledger() != nullptr && engine.ledger()->window_size() != 0)) {
        ++log_->dirty_windows;
      }
    }
    return ok;
  }
  std::size_t OpenPhyRecords() const override {
    return inner_->OpenPhyRecords();
  }
  void Shutdown() override { inner_->Shutdown(); }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(std::string* out) const override {
    const std::size_t before = out->size();
    inner_->SaveState(out);
    log_->blob_bytes.push_back(out->size() - before);
  }
  bool RestoreState(std::string_view bytes) override {
    return inner_->RestoreState(bytes);
  }

 private:
  std::unique_ptr<sim::Protocol> inner_;
  const core::Fcat* fcat_;
  ProbeLog* log_;
  std::uint64_t slots_ = 0;  // the service steps once per slot
};

sim::ProtocolFactory Probed(sim::ProtocolFactory factory, ProbeLog* log) {
  return [factory = std::move(factory), log](std::span<const TagId> pop,
                                             anc::Pcg32 rng) {
    return std::make_unique<ProbeProtocol>(factory(pop, rng), log);
  };
}

sim::ProtocolFactory ChaosFcat2() {
  core::FcatOptions chaos;
  chaos.lambda = 2;
  chaos.fault = *fault::FaultProfile("chaos");
  return core::MakeFcatFactory(chaos);
}

// A soak keeps only live collision records: the protocol blob at the last
// checkpoint stays within a small factor of the first one instead of
// growing with every collision the run has seen, and every inventory-round
// boundary leaves the phy, tracker and ledger windows empty.
TEST(WindowedRecords, SoakCheckpointsStayBounded) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("soak", &config));
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const std::pair<const char*, sim::ProtocolFactory> cases[] = {
      {"fcat2", core::MakeFcatFactory(fcat)}, {"fcat2-chaos", ChaosFcat2()}};
  for (const auto& [label, factory] : cases) {
    SCOPED_TRACE(label);
    ProbeLog log;
    SoakOptions options;
    options.runs = 1;
    options.base_seed = 7;
    const std::string ckpt_path = TempPath("bounded.ckpt");
    ResumableOptions resumable;  // library-default cadence
    resumable.checkpoint_path = ckpt_path;
    (void)RunSoakResumable(Probed(factory, &log), config, options, 0,
                           nullptr, resumable);

    ASSERT_GE(log.blob_bytes.size(), std::size_t{8});
    const std::size_t first = log.blob_bytes.front();
    const std::size_t peak =
        *std::max_element(log.blob_bytes.begin(), log.blob_bytes.end());
    EXPECT_LE(log.blob_bytes.back(), 2 * first);
    EXPECT_LE(peak, 3 * first);

    EXPECT_GT(log.rounds_checked, std::size_t{10});
    EXPECT_EQ(log.dirty_windows, std::size_t{0});
    std::remove(ckpt_path.c_str());
  }
}

// Kill-and-resume across window compaction. One-slot epochs with a
// checkpoint every `kill_slot` epochs cut exactly one checkpoint, at
// `kill_slot`, right before the kill — so the cut can be placed on the
// slot a round boundary just emptied the windows, one slot later, mid
// round, or at seeded random slots. The resumed trace bytes and report
// must equal the uninterrupted run's.
TEST(WindowedRecords, ResumeIsByteIdenticalAcrossCompaction) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  config.epoch_slots = 1;
  store::StoreWriterOptions sopts;
  sopts.block_events = 256;
  sopts.sync = store::SyncPolicy::kFlush;

  deploy::DeploymentConfig grid;
  grid.reader_rows = 2;
  grid.reader_cols = 2;
  grid.share_records = true;
  const std::pair<const char*, sim::ProtocolFactory> cases[] = {
      {"fcat2-chaos", ChaosFcat2()},
      {"deploy-2x2-shared",
       deploy::MakeDeploymentFactory(grid, core::MakeFcatFactory({}))}};

  for (const auto& [label, factory] : cases) {
    SCOPED_TRACE(label);
    SoakOptions options;
    options.n_initial = 30;
    options.runs = 1;
    options.base_seed = 5;

    // Uninterrupted reference; its probe log places the kills.
    ProbeLog log;
    const std::string ref_path = TempPath("window_ref.ancs");
    auto ref_sink = std::make_unique<store::StoreFileSink>(ref_path, sopts);
    const SloReport ref_report =
        RunSoakResumable(Probed(factory, &log), config, options, 0,
                         ref_sink.get(), ResumableOptions{});
    ASSERT_EQ(ref_sink->Finish(), "");
    const std::string ref_bytes = Slurp(ref_path);
    ASSERT_GE(log.round_starts.size(), std::size_t{2});

    const std::uint64_t boundary = log.round_starts[0];
    const std::uint64_t next_boundary = log.round_starts[1];
    std::vector<std::uint64_t> kills = {boundary, boundary + 1,
                                        (boundary + next_boundary) / 2};
    anc::Pcg32 pick(options.base_seed, 17);
    for (int i = 0; i < 2; ++i) {
      kills.push_back(1 + pick.UniformBelow(static_cast<std::uint32_t>(
                              ref_report.slots - 1)));
    }

    for (const std::uint64_t kill : kills) {
      SCOPED_TRACE("kill at slot " + std::to_string(kill));
      const std::string torn_path = TempPath("window_torn.ancs");
      const std::string ckpt_path = TempPath("window.ckpt");
      ResumableOptions kill_opts;
      kill_opts.checkpoint_every_epochs = kill;
      kill_opts.checkpoint_path = ckpt_path;
      kill_opts.abort_before_slot = kill;
      bool aborted = false;
      {
        auto torn_sink =
            std::make_unique<store::StoreFileSink>(torn_path, sopts);
        (void)RunSoakResumable(factory, config, options, 0, torn_sink.get(),
                               kill_opts, &aborted);
      }
      ASSERT_TRUE(aborted);
      ServiceCheckpoint cut;
      ASSERT_EQ(ReadCheckpointFile(ckpt_path, &cut), "");
      ASSERT_EQ(cut.slot, kill);

      ResumableOptions resume_opts;
      resume_opts.checkpoint_every_epochs = kill;
      resume_opts.checkpoint_path = ckpt_path;
      SloReport resumed_report;
      std::unique_ptr<store::StoreFileSink> resumed_sink;
      ASSERT_EQ(ResumeSoak(factory, config, options, 0, ckpt_path, torn_path,
                           sopts, resume_opts, &resumed_report,
                           &resumed_sink),
                "");
      ASSERT_NE(resumed_sink, nullptr);
      ASSERT_EQ(resumed_sink->Finish(), "");
      EXPECT_EQ(Slurp(torn_path), ref_bytes) << "trace bytes differ";
      EXPECT_EQ(ReportBlob(resumed_report), ReportBlob(ref_report));
      std::remove(torn_path.c_str());
      std::remove(ckpt_path.c_str());
    }
    std::remove(ref_path.c_str());
  }
}

// Restore must fail closed on a malformed blob rather than index out of
// its arenas. Every single-byte corruption and every truncation of a
// mid-round FCAT-2@chaos protocol blob either is rejected or restores a
// protocol that keeps running (the sanitizer builds in CI turn any stray
// index into a failure here).
TEST(WindowedRecords, CorruptProtocolBlobsFailClosed) {
  anc::Pcg32 pop_rng(3);
  const auto pop = sim::MakePopulation(60, pop_rng);
  core::FcatOptions chaos;
  chaos.lambda = 2;
  chaos.fault = *fault::FaultProfile("chaos");
  const auto make = [&] {
    return std::make_unique<core::Fcat>(pop, anc::Pcg32(4), chaos);
  };
  auto original = make();
  for (int i = 0; i < 120 && !original->Finished(); ++i) original->Step();
  ASSERT_GT(original->engine().tracker().window_size(), 0u);
  std::string blob;
  original->SaveState(&blob);
  ASSERT_TRUE(make()->RestoreState(blob));

  std::size_t rejected = 0;
  const auto try_restore = [&](std::string_view bytes) {
    auto p = make();
    if (!p->RestoreState(bytes)) {
      ++rejected;
      return;
    }
    for (int i = 0; i < 30 && !p->Finished(); ++i) p->Step();
  };
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    try_restore(bad);
  }
  for (std::size_t keep = 0; keep < blob.size(); ++keep) {
    try_restore(std::string_view(blob).substr(0, keep));
  }
  // Payload bytes (RNG state, counters) may flip into another valid
  // state; structural bytes must not. Most corruptions are caught.
  EXPECT_GT(rejected, blob.size());
}

// Each sub-blob can be valid on its own while the pair is not: a tracker
// or ledger window that ends past the phy's next handle would put the
// next collision's handle below their base. Pair a mid-round engine blob
// with the phy blob of a run that has issued no handle yet; restore must
// refuse it.
TEST(WindowedRecords, RejectsRecordWindowsPastThePhy) {
  anc::Pcg32 pop_rng(3);
  const auto pop = sim::MakePopulation(60, pop_rng);
  core::FcatOptions chaos;
  chaos.lambda = 2;
  chaos.fault = *fault::FaultProfile("chaos");
  const auto make = [&] {
    return std::make_unique<core::Fcat>(pop, anc::Pcg32(4), chaos);
  };
  auto mid = make();
  for (int i = 0; i < 120 && !mid->Finished(); ++i) mid->Step();
  ASSERT_GT(mid->engine().tracker().window_size(), 0u);
  ASSERT_GT(mid->engine().ledger()->window_size(), 0u);
  std::string mid_blob;
  mid->SaveState(&mid_blob);
  std::string fresh_blob;
  make()->SaveState(&fresh_blob);

  ser::Reader mid_r{mid_blob};
  (void)mid_r.Bytes();
  const std::string_view mid_engine = mid_r.Bytes();
  ser::Reader fresh_r{fresh_blob};
  const std::string_view fresh_phy = fresh_r.Bytes();
  ASSERT_TRUE(mid_r.ok && fresh_r.ok);

  std::string spliced;
  ser::PutBytes(spliced, fresh_phy);
  ser::PutBytes(spliced, mid_engine);
  ser::PutVarint(spliced, static_cast<std::uint64_t>(ser::BlobFormat::kV2));
  EXPECT_FALSE(make()->RestoreState(spliced));
  // The same engine blob with its own phy restores.
  EXPECT_TRUE(make()->RestoreState(mid_blob));
}

}  // namespace
}  // namespace anc::service
