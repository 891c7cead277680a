// Tests for the ANCSTORE container (src/store): LZ codec round-trips,
// byte-identical store round-trips, O(log n) seek correctness, the
// adversarial fail-closed paths (truncation, bit flips, out-of-bounds
// index entries), legacy v1 reads, index-backed queries against full
// decodes, and the seqlock snapshot log under concurrent readers.
#include "store/container.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <unistd.h>
#include <string>
#include <thread>
#include <vector>

#include "core/factories.h"
#include "service/service.h"
#include "store/crc32.h"
#include "store/lz.h"
#include "store/query.h"
#include "store/snapshot.h"
#include "trace/binary.h"
#include "trace/recorder.h"

namespace anc::store {
namespace {

// Records a deterministic FCAT-2 soak (service smoke profile) — churny
// enough to exercise every event kind the store indexes (arrive/depart/
// detect/epoch), unlike a closed inventory run.
trace::TraceFile RecordSoak(std::size_t runs, std::uint64_t base_seed = 1,
                            std::size_t n_initial = 30) {
  service::ServiceConfig config;
  EXPECT_TRUE(service::LookupServiceProfile("smoke", &config));
  core::FcatOptions options;
  options.lambda = 2;
  service::SoakOptions so;
  so.n_initial = n_initial;
  so.runs = runs;
  so.base_seed = base_seed;
  trace::MultiRunRecorder recorder(runs);
  so.trace_factory = recorder.Factory();
  service::RunSoakExperiment(core::MakeFcatFactory(options), config, so);
  return recorder.File();
}

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void Spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// ---------------------------------------------------------------- LZ --

TEST(Lz, RoundTripsAssortedInputs) {
  std::vector<std::string> inputs = {
      "",
      "a",
      "abc",
      std::string(100000, 'x'),
      "abcdabcdabcdabcdabcdabcdabcd",
  };
  // Deterministic pseudo-random bytes: the incompressible case.
  std::string noise;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 50000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    noise.push_back(static_cast<char>(state >> 56));
  }
  inputs.push_back(noise);
  // Long-range repetition: matches far beyond one 64k window must still
  // decode (the compressor just will not reference them).
  std::string far = noise + std::string(70000, 'q') + noise;
  inputs.push_back(far);

  for (const std::string& raw : inputs) {
    const std::string comp = LzCompress(raw);
    std::string back;
    ASSERT_EQ(LzDecompress(comp, raw.size(), &back), "")
        << "raw size " << raw.size();
    EXPECT_EQ(back, raw) << "raw size " << raw.size();
  }
}

TEST(Lz, CompressesRepetitiveInput) {
  const std::string raw(100000, 'x');
  EXPECT_LT(LzCompress(raw).size(), raw.size() / 50);
}

TEST(Lz, DecompressFailsClosed) {
  const std::string raw = "the quick brown fox jumps over the lazy dog "
                          "the quick brown fox jumps over the lazy dog";
  const std::string comp = LzCompress(raw);
  std::string out;
  // Truncated stream: must error, or — when the cut only drops the
  // empty final-literal token — still decode the exact original bytes.
  // What it must never do is hand back raw_len bytes that differ.
  for (std::size_t cut = 0; cut < comp.size(); ++cut) {
    const std::string err =
        LzDecompress(comp.substr(0, cut), raw.size(), &out);
    if (err.empty()) {
      EXPECT_EQ(out, raw) << "cut at " << cut;
    }
  }
  EXPECT_NE(LzDecompress(comp.substr(0, comp.size() / 2), raw.size(), &out),
            "");
  // Wrong declared length, both directions.
  EXPECT_NE(LzDecompress(comp, raw.size() + 1, &out), "");
  EXPECT_NE(LzDecompress(comp, raw.size() - 1, &out), "");
  // Every single-byte corruption either errors or mis-decodes — it must
  // never crash or over-run. (CRC catches silent mis-decodes upstream.)
  for (std::size_t i = 0; i < comp.size(); ++i) {
    std::string bad = comp;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    (void)LzDecompress(bad, raw.size(), &out);
  }
}

TEST(Lz, OverlappingMatchReplicatesItsPeriod) {
  // 'a', then a dist-1 match of 999 bytes (code 995 = 15 + 255*3 + 215):
  // each copied byte is one the same match just produced.
  std::string comp = {static_cast<char>(1 << 4 | 15), 'a', 1, 0};
  comp += std::string(3, static_cast<char>(0xFF));
  comp += static_cast<char>(215);
  comp += '\0';  // final, literals-only sequence
  std::string out;
  ASSERT_EQ(LzDecompress(comp, 1000, &out), "");
  EXPECT_EQ(out, std::string(1000, 'a'));

  // Period 3, overlapping: "abc" then a dist-3 match of 9 bytes.
  const std::string period = {static_cast<char>(3 << 4 | 5), 'a', 'b', 'c',
                              3, 0};
  ASSERT_EQ(LzDecompress(period, 12, &out), "");
  EXPECT_EQ(out, "abcabcabcabc");
}

TEST(Lz, MatchAsLongAsItsDistanceEndsAtDeclaredSize) {
  // dist == len: the source ends exactly where the copy starts. The
  // stream ends after the match, so the match itself ends at raw_len.
  const std::string comp = {static_cast<char>(4 << 4 | 0), 'a', 'b', 'c',
                            'd', 4, 0};
  std::string out;
  ASSERT_EQ(LzDecompress(comp, 8, &out), "");
  EXPECT_EQ(out, "abcdabcd");
  // One byte short of the match: fails on the overflow check, with the
  // output trimmed to the literals produced before it.
  EXPECT_EQ(LzDecompress(comp, 7, &out),
            "match overflows declared size at compressed offset 7");
  EXPECT_EQ(out, "abcd");
  // One byte more declared than the stream makes.
  EXPECT_EQ(LzDecompress(comp, 9, &out),
            "decompressed 8 bytes, block declares 9");
}

TEST(Lz, DecompressErrorMessagesArePinned) {
  std::string out;
  const std::string lits = {static_cast<char>(4 << 4 | 0), 'a', 'b', 'c',
                            'd', 4, 0};
  EXPECT_EQ(LzDecompress(lits.substr(0, 3), 8, &out),
            "truncated literals at compressed offset 1");
  EXPECT_EQ(LzDecompress(lits.substr(0, 6), 8, &out),
            "truncated match offset at compressed offset 5");
  EXPECT_EQ(LzDecompress(lits, 3, &out),
            "literal run overflows declared size at compressed offset 1");
  const std::string far = {static_cast<char>(4 << 4 | 0), 'a', 'b', 'c',
                           'd', 5, 0};
  EXPECT_EQ(LzDecompress(far, 8, &out),
            "match offset outside produced output at compressed offset 5");
  const std::string ext = {static_cast<char>(15 << 4 | 0),
                           static_cast<char>(0xFF)};
  EXPECT_EQ(LzDecompress(ext, 300, &out),
            "truncated length extension at compressed offset 2");
  const std::string match_ext = {static_cast<char>(1 << 4 | 15), 'a', 1, 0};
  EXPECT_EQ(LzDecompress(match_ext, 300, &out),
            "truncated length extension at compressed offset 4");
  EXPECT_EQ(LzDecompress("", 1, &out),
            "empty compressed block for nonzero size");
}

// ------------------------------------------------------------- CRC --

// Bytewise reference CRC-32 (reflected 0xEDB88320), kept here so the
// table-driven implementation is checked against the definition.
std::uint32_t ReferenceCrc32(std::string_view bytes, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("", 0xDEADBEEFu), 0xDEADBEEFu);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const std::string text = "column-major trace blocks, CRC-checked on read";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view a = std::string_view(text).substr(0, cut);
    const std::string_view b = std::string_view(text).substr(cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(text)) << "cut " << cut;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::string buf;
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 64; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    buf.push_back(static_cast<char>(state >> 56));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 40; ++len) {
      const std::string_view bytes = std::string_view(buf).substr(offset, len);
      EXPECT_EQ(Crc32(bytes), ReferenceCrc32(bytes))
          << "offset " << offset << " len " << len;
      EXPECT_EQ(Crc32(bytes, 0x12345678u), ReferenceCrc32(bytes, 0x12345678u))
          << "offset " << offset << " len " << len;
    }
  }
}

// ----------------------------------------------------- block codec --

trace::TraceFile GoldenSoak() {
  trace::TraceFile file;
  EXPECT_EQ(trace::ReadTraceFile(
                std::string(ANC_GOLDEN_DIR) + "/soak_smoke.trace", &file),
            "");
  return file;
}

// The golden's events cut into blocks of `block_events`, run by run.
std::vector<std::vector<trace::TraceEvent>> GoldenBlocks(
    std::size_t block_events) {
  std::vector<std::vector<trace::TraceEvent>> blocks;
  for (const trace::RunTrace& run : GoldenSoak().runs) {
    for (std::size_t i = 0; i < run.events.size(); i += block_events) {
      const std::size_t end = std::min(run.events.size(), i + block_events);
      blocks.emplace_back(run.events.begin() + i, run.events.begin() + end);
    }
  }
  return blocks;
}

TEST(StoreContainer, BlockPayloadBytesArePinned) {
  // FNV-1a over the columnar payloads of the committed soak golden: pins
  // the codec's byte order and per-kind clock deltas, so a faster encoder
  // must stay byte-identical.
  const auto digest = [](std::size_t block_events) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& block : GoldenBlocks(block_events)) {
      for (const char c : EncodeBlockPayload(block)) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
      }
    }
    return h;
  };
  EXPECT_EQ(digest(256), 0x6d601b9cd22f75b6ull);
  EXPECT_EQ(digest(4096), 0x930a7cbe52ce26c2ull);
}

TEST(StoreContainer, ProjectedDecodeKeepsOneKindInStreamOrder) {
  for (const auto& block : GoldenBlocks(256)) {
    const std::string raw = EncodeBlockPayload(block);
    std::vector<trace::TraceEvent> got;
    ASSERT_EQ(DecodeBlockPayload(raw, block.size(), &got), "");
    ASSERT_EQ(got, block);
    for (std::uint8_t k = 1; k <= 13; ++k) {
      const auto kind = static_cast<trace::EventKind>(k);
      std::vector<trace::TraceEvent> want;
      for (const trace::TraceEvent& e : block) {
        if (e.kind == kind) want.push_back(e);
      }
      ASSERT_EQ(DecodeBlockPayload(raw, block.size(), &got, kind), "");
      EXPECT_EQ(got, want) << trace::KindName(kind);
    }
  }
}

TEST(StoreContainer, DecodeErrorsArePinnedAndSurviveProjection) {
  // One kSlot event at reader 0, slot 0, frame 0: count, kind, reader,
  // slot delta, frame delta, then its outcome byte and responders varint.
  trace::TraceEvent e;
  e.kind = trace::EventKind::kSlot;
  e.outcome = trace::SlotOutcome::kCollision;
  e.responders = 3;
  const std::string raw = EncodeBlockPayload({e});
  ASSERT_EQ(raw, std::string({1, 1, 0, 0, 0, 2, 3}));

  std::string bad_field = raw;
  bad_field[5] = 7;
  std::string bad_kind = raw;
  bad_kind[1] = 0;
  const struct {
    std::string bytes;
    std::uint64_t expect_events;
    const char* error;
  } cases[] = {
      {bad_field, 1, "field value 7 out of range for slot"},
      {raw.substr(0, 6), 1, "truncated field columns"},
      {raw + "x", 1, "1 trailing bytes after block payload"},
      {raw.substr(0, 4), 1, "truncated reader/slot/frame columns"},
      {raw.substr(0, 1), 1, "truncated kind column"},
      {bad_kind, 1, "invalid event kind 0 in kind column"},
      {raw, 2, "block declares 1 events, index says 2"},
      {"", 0, "truncated block payload header"},
      {std::string({3, 1}), 3, "event count exceeds payload size"},
  };
  for (const auto& c : cases) {
    std::vector<trace::TraceEvent> out;
    EXPECT_EQ(DecodeBlockPayload(c.bytes, c.expect_events, &out), c.error);
    EXPECT_EQ(DecodeBlockPayload(c.bytes, c.expect_events, &out,
                                 trace::EventKind::kEpoch),
              c.error);
  }
}

// ---------------------------------------------------- container I/O --

TEST(StoreContainer, RoundTripIsByteIdentical) {
  const trace::TraceFile file = RecordSoak(2);
  ASSERT_EQ(file.runs.size(), 2u);
  const std::string path = TempPath("anc_store_roundtrip.ancstore");

  StoreWriterOptions options;
  options.block_events = 512;  // force multiple blocks per run
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  trace::TraceFile back;
  ASSERT_EQ(ReadStoreFile(path, &back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));

  // And it actually compressed.
  const std::string raw = trace::EncodeTrace(file);
  EXPECT_LT(Slurp(path).size(), raw.size());
  std::remove(path.c_str());
}

TEST(StoreContainer, UncompressedOptionRoundTrips) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_rawblocks.ancstore");
  StoreWriterOptions options;
  options.compress = false;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  for (const BlockMeta& b : reader.blocks()) {
    EXPECT_EQ(b.comp_len, b.raw_len);
  }
  trace::TraceFile back;
  ASSERT_EQ(reader.ReadAll(&back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));
  std::remove(path.c_str());
}

TEST(StoreContainer, LegacyV1ReadsByteIdentically) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string path = TempPath("anc_store_legacy.trace");
  ASSERT_EQ(trace::WriteTraceFile(path, file), "");

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  EXPECT_TRUE(reader.legacy());
  EXPECT_EQ(reader.runs().size(), 2u);
  trace::TraceFile back;
  ASSERT_EQ(reader.ReadAll(&back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));
  std::remove(path.c_str());
}

TEST(StoreContainer, SeekFindsEveryFrame) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_seek.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;  // many blocks: exercise the binary search
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  ASSERT_GT(reader.blocks().size(), 4u);

  std::uint64_t max_frame = 0;
  for (const BlockMeta& b : reader.blocks()) {
    if (b.max_frame > max_frame) max_frame = b.max_frame;
  }
  std::vector<trace::TraceEvent> events;
  for (std::uint64_t frame = 0; frame <= max_frame; ++frame) {
    const std::size_t block = reader.FindBlockForFrame(0, frame);
    ASSERT_NE(block, kNoBlock) << "frame " << frame;
    // The index must point at the first block whose coverage can hold
    // the frame: every earlier block tops out below it.
    for (std::size_t b = reader.runs()[0].first_block; b < block; ++b) {
      EXPECT_LT(reader.blocks()[b].max_frame, frame);
    }
    EXPECT_GE(reader.blocks()[block].max_frame, frame);
    ASSERT_EQ(reader.ReadBlock(block, &events), "");
  }
  EXPECT_EQ(reader.FindBlockForFrame(0, max_frame + 1), kNoBlock);
  std::remove(path.c_str());
}

// ------------------------------------------------------- adversarial --

struct CorruptionCase {
  const trace::TraceFile file = RecordSoak(1);
  // Process-unique path: gtest_discover_tests runs each adversarial
  // test as its own ctest entry, and a parallel ctest would otherwise
  // have them corrupting one shared file mid-test.
  std::string path = TempPath(("anc_store_adversarial_" +
                               std::to_string(::getpid()) + ".ancstore")
                                  .c_str());
  std::string bytes;

  CorruptionCase() {
    StoreWriterOptions options;
    options.block_events = 512;
    EXPECT_EQ(WriteStoreFile(path, file, options), "");
    bytes = Slurp(path);
    EXPECT_GT(bytes.size(), 40u);
  }
  ~CorruptionCase() { std::remove(path.c_str()); }

  std::uint64_t FooterOffset() const {
    std::uint64_t v = 0;
    const std::size_t at = bytes.size() - 20;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[at + i]))
           << (8 * i);
    }
    return v;
  }
};

TEST(StoreContainer, MidBlockTruncationIsRejected) {
  CorruptionCase c;
  // Cut inside the data region (past the header, before the footer):
  // the trailer magic disappears, so Open must fail outright.
  const std::uint64_t footer = c.FooterOffset();
  Spit(c.path, c.bytes.substr(0, footer / 2));
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, TruncatedTrailerIsRejected) {
  CorruptionCase c;
  Spit(c.path, c.bytes.substr(0, c.bytes.size() - 3));
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, FlippedBlockByteFailsCrc) {
  CorruptionCase c;
  StoreReader clean;
  ASSERT_EQ(clean.Open(c.path), "");
  ASSERT_FALSE(clean.blocks().empty());
  const BlockMeta& b = clean.blocks()[0];

  std::string bad = c.bytes;
  bad[b.offset + b.comp_len / 2] ^= 0x01;
  Spit(c.path, bad);

  // The footer is intact, so Open succeeds — the damage must surface as
  // a CRC error on the damaged block, and only that block.
  StoreReader reader;
  ASSERT_EQ(reader.Open(c.path), "");
  std::vector<trace::TraceEvent> events;
  EXPECT_NE(reader.ReadBlock(0, &events), "");
  if (reader.blocks().size() > 1) {
    EXPECT_EQ(reader.ReadBlock(1, &events), "");
  }
}

TEST(StoreContainer, FlippedFooterByteIsRejected) {
  CorruptionCase c;
  std::string bad = c.bytes;
  bad[c.FooterOffset() + 5] ^= 0x20;
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, IndexPastEofIsRejected) {
  CorruptionCase c;
  // Drop the tail of the data region but keep the (unchanged, so still
  // CRC-valid) footer: block offsets now point past the data that
  // remains. Open must reject on the bounds check, not misparse.
  const std::uint64_t footer = c.FooterOffset();
  const std::uint64_t cut = footer / 2;
  std::string bad = c.bytes.substr(0, cut) +
                    c.bytes.substr(footer, c.bytes.size() - 20 - footer);
  const std::uint64_t new_footer = cut;
  for (int i = 0; i < 8; ++i) {
    bad.push_back(static_cast<char>((new_footer >> (8 * i)) & 0xff));
  }
  bad.append(c.bytes.substr(c.bytes.size() - 12));  // old CRC + end magic
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, BadMagicIsRejected) {
  CorruptionCase c;
  std::string bad = c.bytes;
  bad[0] = 'X';
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");

  Spit(c.path, "short");
  StoreReader reader2;
  EXPECT_NE(reader2.Open(c.path), "");
}

TEST(StoreContainer, TruncatedLegacyV1IsRejected) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_legacy_trunc.trace");
  ASSERT_EQ(trace::WriteTraceFile(path, file), "");
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, bytes.size() / 2));
  StoreReader reader;
  EXPECT_NE(reader.Open(path), "");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ query --

TEST(StoreQuery, SummarizeMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string path = TempPath("anc_store_query_sum.ancstore");
  StoreWriterOptions options;
  options.block_events = 512;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  const StoreSummary summary = Summarize(reader);
  ASSERT_EQ(summary.runs.size(), file.runs.size());
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < file.runs.size(); ++r) {
    const auto& events = file.runs[r].events;
    total += events.size();
    EXPECT_EQ(summary.runs[r].n_events, events.size());
    std::uint64_t arrives = 0, departs = 0, detects = 0;
    for (const trace::TraceEvent& e : events) {
      arrives += e.kind == trace::EventKind::kArrive;
      departs += e.kind == trace::EventKind::kDepart;
      detects += e.kind == trace::EventKind::kDetect;
    }
    EXPECT_EQ(summary.runs[r].arrives, arrives);
    EXPECT_EQ(summary.runs[r].departs, departs);
    EXPECT_EQ(summary.runs[r].detects, detects);
  }
  EXPECT_EQ(summary.n_events, total);
  std::remove(path.c_str());
}

TEST(StoreQuery, FrameWindowMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_query_win.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  auto frame_bearing = [](const trace::TraceEvent& e) {
    return e.kind != trace::EventKind::kEpoch &&
           e.kind != trace::EventKind::kTdmaSlot &&
           e.kind != trace::EventKind::kRunEnd;
  };
  std::uint64_t max_frame = 0;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (frame_bearing(e) && e.frame > max_frame) max_frame = e.frame;
  }
  const std::uint64_t lo = max_frame / 3;
  const std::uint64_t hi = 2 * max_frame / 3;

  std::vector<trace::TraceEvent> expect;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (frame_bearing(e) && e.frame >= lo && e.frame <= hi) {
      expect.push_back(e);
    }
  }
  std::vector<trace::TraceEvent> got;
  WindowSeed seed;
  ASSERT_EQ(QueryFrameWindow(reader, 0, lo, hi, &got, &seed), "");
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "event " << i;
  }

  // The seed must replay the prefix: counters over all events strictly
  // before the window's first block.
  const std::size_t first_block = reader.FindBlockForFrame(0, lo);
  ASSERT_NE(first_block, kNoBlock);
  const std::uint64_t prefix = reader.blocks()[first_block].first_event;
  std::uint64_t arrives = 0;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    arrives +=
        file.runs[0].events[i].kind == trace::EventKind::kArrive;
  }
  EXPECT_EQ(seed.arrives, arrives);
  std::remove(path.c_str());
}

TEST(StoreQuery, EpochWindowMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_query_epoch.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  std::vector<trace::TraceEvent> epochs;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (e.kind == trace::EventKind::kEpoch) epochs.push_back(e);
  }
  ASSERT_GT(epochs.size(), 2u);

  // Epoch indices are 1-based (kEpoch.frame = running epoch count), so
  // the interior window [2, n-1] maps to vector entries [1, n-2].
  std::vector<trace::TraceEvent> got;
  ASSERT_EQ(QueryEpochWindow(reader, 0, 2, epochs.size() - 1, &got), "");
  ASSERT_EQ(got.size(), epochs.size() - 2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], epochs[i + 1]);
  }
  std::remove(path.c_str());
}

// Window-query properties: every query must return what a full decode of
// its run gives under the query's documented semantics, over seeded
// random windows plus the edge cases.

struct Window {
  std::size_t run;
  std::uint64_t lo, hi;
};

std::vector<Window> SeededWindows(std::size_t n_runs, std::uint64_t max_value,
                                  std::uint64_t seed) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<Window> windows;
  for (std::size_t run = 0; run < n_runs; ++run) {
    windows.push_back({run, 0, 0});
    windows.push_back({run, 0, max_value});
    windows.push_back({run, 0, kMax});
    windows.push_back({run, 3, 1});                  // lo > hi
    windows.push_back({run, max_value + 1, kMax});   // past the last one
    windows.push_back({run, kMax, kMax});
  }
  std::mt19937_64 rng(seed);
  while (windows.size() < 200) {
    const std::size_t run = rng() % n_runs;
    const std::uint64_t lo = rng() % (max_value + 3);
    std::uint64_t hi = 0;
    switch (rng() % 4) {
      case 0: hi = lo + rng() % 8; break;
      case 1: hi = lo + rng() % (max_value + 3); break;
      case 2: hi = lo - 1 - rng() % 3; break;  // lo > hi (wraps at lo < 3)
      default: hi = kMax; break;
    }
    windows.push_back({run, lo, hi});
  }
  return windows;
}

bool FrameBearingKind(trace::EventKind kind) {
  return kind != trace::EventKind::kEpoch &&
         kind != trace::EventKind::kTdmaSlot &&
         kind != trace::EventKind::kRunEnd;
}

bool ChurnKind(trace::EventKind kind) {
  return kind == trace::EventKind::kArrive ||
         kind == trace::EventKind::kDepart ||
         kind == trace::EventKind::kDetect;
}

// Checks every seeded window of `reader` against `file`, the same trace
// decoded in full.
void ExpectWindowsMatchFullDecode(StoreReader& reader,
                                  const trace::TraceFile& file) {
  std::uint64_t max_epoch = 0, max_frame = 0;
  for (const trace::RunTrace& run : file.runs) {
    for (const trace::TraceEvent& e : run.events) {
      if (e.kind == trace::EventKind::kEpoch) {
        max_epoch = std::max(max_epoch, e.frame);
      } else if (FrameBearingKind(e.kind)) {
        max_frame = std::max(max_frame, e.frame);
      }
    }
  }
  ASSERT_GT(max_epoch, 2u);
  std::vector<trace::TraceEvent> got;
  for (const Window& w : SeededWindows(file.runs.size(), max_epoch, 7)) {
    std::vector<trace::TraceEvent> want;
    for (const trace::TraceEvent& e : file.runs[w.run].events) {
      if (e.kind == trace::EventKind::kEpoch && e.frame >= w.lo &&
          e.frame <= w.hi) {
        want.push_back(e);
      }
    }
    ASSERT_EQ(QueryEpochWindow(reader, w.run, w.lo, w.hi, &got), "");
    EXPECT_EQ(got, want) << "epochs run " << w.run << " [" << w.lo << ","
                         << w.hi << "]";
  }
  for (const Window& w : SeededWindows(file.runs.size(), max_frame, 11)) {
    // A frame window stops at the first frame-bearing event past it.
    // Churn events carry inventory rounds in `frame`, so that scan and a
    // plain filter agree on the protocol events only.
    std::vector<trace::TraceEvent> scan, protocol;
    bool past = false;
    for (const trace::TraceEvent& e : file.runs[w.run].events) {
      if (!FrameBearingKind(e.kind)) continue;
      past |= e.frame > w.hi;
      const bool in = e.frame >= w.lo && e.frame <= w.hi;
      if (!past && in) scan.push_back(e);
      if (in && !ChurnKind(e.kind)) protocol.push_back(e);
    }
    WindowSeed seed;
    ASSERT_EQ(QueryFrameWindow(reader, w.run, w.lo, w.hi, &got, &seed), "");
    EXPECT_EQ(got, scan) << "frames run " << w.run << " [" << w.lo << ","
                         << w.hi << "]";
    std::vector<trace::TraceEvent> got_protocol;
    for (const trace::TraceEvent& e : got) {
      if (!ChurnKind(e.kind)) got_protocol.push_back(e);
    }
    EXPECT_EQ(got_protocol, protocol);
  }
}

TEST(StoreQuery, SeededWindowsMatchFullDecode) {
  const trace::TraceFile file = RecordSoak(2);
  // 16- and 64-event blocks leave most blocks without an epoch, so
  // windows straddle block edges; 4096 puts a run in one block.
  for (const std::size_t block_events : {16, 64, 4096}) {
    SCOPED_TRACE("block_events " + std::to_string(block_events));
    const std::string path = TempPath("anc_store_query_windows.ancstore");
    StoreWriterOptions options;
    options.block_events = block_events;
    ASSERT_EQ(WriteStoreFile(path, file, options), "");
    StoreReader reader;
    ASSERT_EQ(reader.Open(path), "");
    ExpectWindowsMatchFullDecode(reader, file);
    std::remove(path.c_str());
  }
}

TEST(StoreQuery, SeededWindowsMatchFullDecodeOnLegacyV1) {
  // The committed v1 golden reads through pseudo-blocks.
  StoreReader reader;
  ASSERT_EQ(reader.Open(std::string(ANC_GOLDEN_DIR) + "/soak_smoke.trace"),
            "");
  ASSERT_TRUE(reader.legacy());
  ExpectWindowsMatchFullDecode(reader, GoldenSoak());
}

TEST(StoreQuery, EpochWindowOnEmptyRunIsEmpty) {
  trace::TraceFile file;
  file.runs.resize(1);
  file.runs[0].header.protocol = "empty";
  const std::string path = TempPath("anc_store_query_empty.ancstore");
  ASSERT_EQ(WriteStoreFile(path, file), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  ASSERT_EQ(reader.runs().size(), 1u);
  std::vector<trace::TraceEvent> got;
  EXPECT_EQ(QueryEpochWindow(reader, 0, 0,
                             std::numeric_limits<std::uint64_t>::max(), &got),
            "");
  EXPECT_TRUE(got.empty());
  std::string err;
  EXPECT_EQ(reader.FindBlockForEpoch(0, 0, &err), kNoBlock);
  EXPECT_EQ(err, "");
  std::remove(path.c_str());
}

TEST(StoreQuery, EpochWindowDecodesOnlyTheBlocksItSpans) {
  // 40 epochs, each after 20-119 slot events: with 128-event blocks every
  // block holds an epoch, so a window of w epochs spans at most w + 2
  // blocks once the run's epoch index exists.
  trace::TraceFile file;
  file.runs.resize(1);
  file.runs[0].header.protocol = "dense-epochs";
  std::uint64_t slot = 0;
  for (std::uint64_t epoch = 1; epoch <= 40; ++epoch) {
    for (std::uint64_t i = 0; i < 20 + epoch * 37 % 100; ++i) {
      trace::TraceEvent e;
      e.slot = ++slot;
      e.frame = epoch;
      file.runs[0].events.push_back(e);
    }
    trace::TraceEvent e;
    e.kind = trace::EventKind::kEpoch;
    e.slot = slot;
    e.frame = epoch;
    file.runs[0].events.push_back(e);
  }
  const std::string path = TempPath("anc_store_query_dense.ancstore");
  StoreWriterOptions options;
  options.block_events = 128;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  const std::size_t n_blocks = reader.runs()[0].n_blocks;
  ASSERT_GT(n_blocks, 20u);

  std::vector<trace::TraceEvent> got;
  ASSERT_EQ(QueryEpochWindow(reader, 0, 20, 20, &got), "");
  ASSERT_EQ(got.size(), 1u);
  // The first query pays for the index: one decode per block of the run.
  const std::uint64_t after_index = reader.blocks_decoded();
  EXPECT_GE(after_index, n_blocks);
  EXPECT_LE(after_index, n_blocks + 3);

  for (std::uint64_t lo = 1; lo <= 41; ++lo) {
    for (std::uint64_t w = 1; w <= 8; ++w) {
      const std::uint64_t before = reader.blocks_decoded();
      ASSERT_EQ(QueryEpochWindow(reader, 0, lo, lo + w - 1, &got), "");
      EXPECT_EQ(got.size(), lo > 40 ? 0 : std::min<std::uint64_t>(w, 41 - lo));
      EXPECT_LE(reader.blocks_decoded() - before, w + 2)
          << "[" << lo << "," << lo + w - 1 << "]";
    }
  }
  std::remove(path.c_str());
}

TEST(StoreQuery, EpochWindowFailsClosedOnCorruptBlockBeforeIt) {
  CorruptionCase c;
  StoreReader clean;
  ASSERT_EQ(clean.Open(c.path), "");
  ASSERT_GT(clean.runs()[0].n_blocks, 2u);
  std::vector<trace::TraceEvent> epochs;
  for (const trace::TraceEvent& e : c.file.runs[0].events) {
    if (e.kind == trace::EventKind::kEpoch) epochs.push_back(e);
  }
  ASSERT_GT(epochs.size(), 1u);
  const std::uint64_t last = epochs.back().frame;
  std::string err;
  const std::size_t window_block = clean.FindBlockForEpoch(0, last, &err);
  ASSERT_EQ(err, "");
  ASSERT_GT(window_block, 0u);

  // A repeat query on one reader answers the same.
  std::vector<trace::TraceEvent> first, again;
  ASSERT_EQ(QueryEpochWindow(clean, 0, last, last, &first), "");
  ASSERT_EQ(QueryEpochWindow(clean, 0, last, last, &again), "");
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, std::vector<trace::TraceEvent>{epochs.back()});

  // Damage block 0, before the window's block: the first epoch query
  // still fails, and so does every repeat.
  const BlockMeta& b = clean.blocks()[0];
  std::string bad = c.bytes;
  bad[b.offset + b.comp_len / 2] ^= 0x01;
  Spit(c.path, bad);
  StoreReader reader;
  ASSERT_EQ(reader.Open(c.path), "");
  std::vector<trace::TraceEvent> got;
  const std::string want = "block 0: payload CRC mismatch (corrupt data)";
  EXPECT_EQ(QueryEpochWindow(reader, 0, last, last, &got), want);
  EXPECT_EQ(QueryEpochWindow(reader, 0, last, last, &got), want);
  EXPECT_EQ(reader.FindBlockForEpoch(0, last, &err), kNoBlock);
  EXPECT_EQ(err, want);
}

// --------------------------------------------------------- snapshot --

TEST(EpochSnapshotLog, PublishReadLatestWindow) {
  EpochSnapshotLog log(4);
  EpochSnapshot snap;
  EXPECT_FALSE(log.Latest(&snap));
  EXPECT_FALSE(log.Read(0, &snap));

  for (std::uint64_t i = 0; i < 6; ++i) {
    EpochSnapshot s;
    s.epoch = i;
    s.population = 10 + i;
    log.Publish(s);
  }
  EXPECT_EQ(log.published(), 6u);
  // 0 and 1 fell off the 4-entry ring.
  EXPECT_FALSE(log.Read(0, &snap));
  EXPECT_FALSE(log.Read(1, &snap));
  ASSERT_TRUE(log.Read(2, &snap));
  EXPECT_EQ(snap.epoch, 2u);
  ASSERT_TRUE(log.Latest(&snap));
  EXPECT_EQ(snap.epoch, 5u);
  EXPECT_EQ(snap.population, 15u);

  const std::vector<EpochSnapshot> window = log.Window(3);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().epoch, 3u);
  EXPECT_EQ(window.back().epoch, 5u);
}

TEST(EpochSnapshotLog, ConcurrentReadersNeverSeeTornData) {
  // Payload fields are derived from the epoch; any torn read breaks the
  // relation. Small capacity maximizes wraparound pressure.
  EpochSnapshotLog log(2);
  constexpr std::uint64_t kPublishes = 200000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0}, failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      EpochSnapshot s;
      while (!done.load(std::memory_order_acquire)) {
        if (log.Latest(&s)) {
          reads.fetch_add(1, std::memory_order_relaxed);
          if (s.population != s.epoch * 3 + 1 ||
              s.detected != s.epoch * 7 + 2 ||
              s.ghosts != s.epoch + 5) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Window entries must each be internally consistent too.
        for (const EpochSnapshot& w : log.Window(2)) {
          if (w.population != w.epoch * 3 + 1) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (std::uint64_t i = 0; i < kPublishes; ++i) {
    EpochSnapshot s;
    s.epoch = i;
    s.population = i * 3 + 1;
    s.detected = i * 7 + 2;
    s.ghosts = i + 5;
    log.Publish(s);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EpochSnapshot last;
  ASSERT_TRUE(log.Latest(&last));
  EXPECT_EQ(last.epoch, kPublishes - 1);
}

// The service publishes one snapshot per epoch when handed a log.
TEST(EpochSnapshotLog, ServicePublishesEpochs) {
  service::ServiceConfig config;
  ASSERT_TRUE(service::LookupServiceProfile("smoke", &config));
  core::FcatOptions options;
  options.lambda = 2;
  EpochSnapshotLog log(128);
  service::SoakOptions so;
  so.n_initial = 30;
  so.runs = 1;
  so.base_seed = 7;
  so.snapshot_log = &log;
  const service::SloReport report = service::RunSoakSingle(
      core::MakeFcatFactory(options), config, so, 0);
  EXPECT_EQ(log.published(), report.epochs);
  EpochSnapshot last;
  ASSERT_TRUE(log.Latest(&last));
  EXPECT_EQ(last.epoch, report.epochs);
}

}  // namespace
}  // namespace anc::store
