#include "protocols/sic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/factories.h"
#include "sim/runner.h"
#include "trace/binary.h"
#include "trace/recorder.h"

namespace anc::protocols {
namespace {

using Lists = std::vector<std::vector<std::uint32_t>>;

struct Outcome {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reads;  // tag, list
  Lists residual;
};

// Reference oracle: the scan-every-list SIC loop the protocols ran before
// PeelingDecoder (SeededAloha's variant, whose lists are slots followed by
// stored records). Cancelling a decoded tag scans every list.
Outcome ScanDecode(Lists working, std::size_t n_tags,
                   std::int64_t max_iterations) {
  Outcome out;
  std::vector<std::uint8_t> decoded(n_tags, 0);
  std::vector<std::uint64_t> ready;
  for (std::uint64_t s = 0; s < working.size(); ++s) {
    if (working[s].size() == 1) ready.push_back(s);
  }
  std::int64_t iterations = 0;
  std::size_t head = 0;
  while (head < ready.size() && iterations < max_iterations) {
    const std::uint64_t idx = ready[head++];
    ++iterations;
    if (working[idx].size() != 1) continue;
    const std::uint32_t tag = working[idx][0];
    if (decoded[tag]) continue;
    decoded[tag] = 1;
    out.reads.emplace_back(tag, static_cast<std::uint32_t>(idx));
    for (std::uint64_t s = 0; s < working.size(); ++s) {
      auto& tags = working[s];
      const auto it = std::find(tags.begin(), tags.end(), tag);
      if (it == tags.end()) continue;
      tags.erase(it);
      if (tags.size() == 1) ready.push_back(s);
    }
  }
  out.residual = std::move(working);
  return out;
}

Outcome PeelDecode(PeelingDecoder& sic, const Lists& lists,
                   std::size_t n_tags, std::int64_t max_iterations) {
  sic.Reset(n_tags);
  for (const auto& list : lists) sic.AddList(list);
  Outcome out;
  for (const auto& [tag, list] : sic.Decode(max_iterations)) {
    out.reads.emplace_back(tag, list);
  }
  out.residual.resize(lists.size());
  for (std::size_t l = 0; l < lists.size(); ++l) {
    sic.CopyResidual(l, &out.residual[l]);
    EXPECT_EQ(sic.ResidualSize(l), out.residual[l].size());
  }
  return out;
}

// One frame of `n_slots` slots: every tag of a shuffled population picks
// 1..max_degree distinct slots, so constituent order inside a slot is
// not sorted and stable erase is observable.
Lists RandomFrame(anc::Pcg32& rng, std::uint32_t n_tags,
                  std::uint32_t n_slots, std::uint32_t max_degree) {
  std::vector<std::uint32_t> order(n_tags);
  for (std::uint32_t t = 0; t < n_tags; ++t) order[t] = t;
  for (std::uint32_t i = n_tags; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  Lists slots(n_slots);
  for (std::uint32_t tag : order) {
    const std::uint32_t degree =
        1 + rng.UniformBelow(std::min(max_degree, n_slots));
    std::vector<std::uint32_t> chosen;
    while (chosen.size() < degree) {
      const std::uint32_t s = rng.UniformBelow(n_slots);
      if (std::find(chosen.begin(), chosen.end(), s) != chosen.end()) {
        continue;
      }
      chosen.push_back(s);
      slots[s].push_back(tag);
    }
  }
  return slots;
}

// A departed tag's not-yet-transmitted replicas vanish from the frame
// (Irsa/SeededAloha::DepartTag): remove it from every slot >= cursor.
void Depart(Lists& slots, std::uint32_t tag, std::size_t cursor) {
  for (std::size_t s = cursor; s < slots.size(); ++s) {
    auto& tags = slots[s];
    tags.erase(std::remove(tags.begin(), tags.end(), tag), tags.end());
  }
}

// Stored cross-frame records appended after the slots: 2..5 distinct
// constituents each, drawn from the whole population (some may not be in
// this frame at all).
void AppendRecords(anc::Pcg32& rng, Lists& lists, std::uint32_t n_tags,
                   std::uint32_t n_records) {
  for (std::uint32_t r = 0; r < n_records; ++r) {
    const std::uint32_t size = 2 + rng.UniformBelow(std::min(4u, n_tags - 1));
    std::vector<std::uint32_t> record;
    while (record.size() < size) {
      const std::uint32_t tag = rng.UniformBelow(n_tags);
      if (std::find(record.begin(), record.end(), tag) == record.end()) {
        record.push_back(tag);
      }
    }
    lists.push_back(std::move(record));
  }
}

std::int64_t Cap(int max_ic_iterations, const Lists& lists) {
  return static_cast<std::int64_t>(max_ic_iterations) *
         static_cast<std::int64_t>(lists.size());
}

void ExpectSame(const Outcome& want, const Outcome& got,
                const char* what, int trial) {
  EXPECT_EQ(got.reads, want.reads) << what << " trial " << trial;
  EXPECT_EQ(got.residual, want.residual) << what << " trial " << trial;
}

TEST(PeelingDecoder, MatchesScanOracleOnRandomFrames) {
  PeelingDecoder sic;  // one decoder across every trial: scratch reuse
  anc::Pcg32 rng(2024, 13);
  std::size_t stopping_sets = 0, stored_reads = 0, departed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint32_t n_tags = 1 + rng.UniformBelow(120);
    // Loads from sparse (most decode) to dense (stopping sets survive).
    const std::uint32_t n_slots =
        std::max(1u, n_tags * (4 + rng.UniformBelow(12)) / 10);
    Lists lists = RandomFrame(rng, n_tags, n_slots, 1 + rng.UniformBelow(6));
    if (trial % 2 == 0) {
      const std::uint32_t tag = rng.UniformBelow(n_tags);
      Depart(lists, tag, rng.UniformBelow(n_slots));
      ++departed;
    }
    if (trial % 3 == 0 && n_tags >= 2) {
      AppendRecords(rng, lists, n_tags, 1 + rng.UniformBelow(n_slots));
    }
    const Outcome want = ScanDecode(lists, n_tags, Cap(50, lists));
    const Outcome got = PeelDecode(sic, lists, n_tags, Cap(50, lists));
    ExpectSame(want, got, "random", trial);
    for (const auto& list : want.residual) {
      if (list.size() >= 2) {
        ++stopping_sets;
        break;
      }
    }
    for (const auto& read : want.reads) {
      stored_reads += read.second >= n_slots ? 1 : 0;
    }
  }
  // The sweep really covered the cases it is meant to cover.
  EXPECT_GT(stopping_sets, 20u);
  EXPECT_GT(stored_reads, 20u);
  EXPECT_GT(departed, 100u);
}

TEST(PeelingDecoder, HandBuiltStoppingSetSurvivesInOrder) {
  // Tags 0 and 1 share slots {0, 1} only: a 2x2 stopping set. Tag 2 is a
  // singleton in slot 2 and also sits in slot 1 ahead of 1 and 0, so its
  // cancellation must leave slot 1 as {1, 0} (stable, not re-sorted).
  const Lists lists = {{0, 1}, {2, 1, 0}, {2}, {}};
  PeelingDecoder sic;
  const Outcome got = PeelDecode(sic, lists, 3, Cap(50, lists));
  ExpectSame(ScanDecode(lists, 3, Cap(50, lists)), got, "stopping set", 0);
  ASSERT_EQ(got.reads.size(), 1u);
  EXPECT_EQ(got.reads[0], std::make_pair(2u, 2u));
  EXPECT_EQ(got.residual[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(got.residual[1], (std::vector<std::uint32_t>{1, 0}));
}

TEST(PeelingDecoder, StoredRecordResolvesAfterInFrameCancellation) {
  // Slot 0 reads tag 4; record 2 (list id 2) then holds only tag 7 and
  // yields it by subtraction, which in turn resolves record 3 to tag 5.
  const Lists lists = {{4}, {9, 8}, {7, 4}, {5, 7}};
  PeelingDecoder sic;
  const Outcome got = PeelDecode(sic, lists, 10, Cap(50, lists));
  ExpectSame(ScanDecode(lists, 10, Cap(50, lists)), got, "records", 0);
  using Read = std::pair<std::uint32_t, std::uint32_t>;
  EXPECT_EQ(got.reads, (std::vector<Read>{{4, 0}, {7, 2}, {5, 3}}));
  EXPECT_EQ(got.residual[1], (std::vector<std::uint32_t>{9, 8}));
}

TEST(PeelingDecoder, IterationCapMatchesOracle) {
  // Every list enters the ready queue at most once (its size only falls,
  // and it reaches one once), so the protocols' cap of
  // max_ic_iterations × lists never binds for max_ic_iterations >= 1;
  // max_ic_iterations = 1 is exactly that boundary. Raw caps below the
  // list count do bind, and both decoders must stop at the same pop.
  PeelingDecoder sic;
  anc::Pcg32 rng(77, 5);
  std::size_t binding = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint32_t n_tags = 40 + rng.UniformBelow(200);
    Lists lists = RandomFrame(rng, n_tags, n_tags, 4);  // dense: load 1
    AppendRecords(rng, lists, n_tags, n_tags / 8);
    const Outcome full = ScanDecode(lists, n_tags, Cap(50, lists));
    ExpectSame(full, PeelDecode(sic, lists, n_tags, Cap(1, lists)),
               "max_ic_iterations=1", trial);
    for (std::int64_t cap :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{3},
          static_cast<std::int64_t>(lists.size() / 7),
          static_cast<std::int64_t>(lists.size() / 2)}) {
      const Outcome want = ScanDecode(lists, n_tags, cap);
      ExpectSame(want, PeelDecode(sic, lists, n_tags, cap), "raw cap", trial);
      binding += want.reads.size() < full.reads.size() ? 1 : 0;
    }
  }
  EXPECT_GT(binding, 100u);
}

TEST(PeelingDecoder, ListVisitsBoundedByEdges) {
  // Linearity, counted rather than timed: cancelling decoded tags touches
  // each (tag, list) membership at most once, so a decode's list visits
  // never exceed its edges — the scan oracle pays lists × decoded tags.
  PeelingDecoder sic;
  anc::Pcg32 rng(5, 9);
  std::uint64_t total_edges = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t n_tags = 1 + rng.UniformBelow(3000);
    Lists lists = RandomFrame(rng, n_tags, 1 + n_tags * 10 / 9, 8);
    AppendRecords(rng, lists, std::max(n_tags, 2u), n_tags / 20);
    const std::uint64_t before = sic.list_visits();
    sic.Reset(std::max(n_tags, 2u));
    for (const auto& list : lists) sic.AddList(list);
    sic.Decode(Cap(50, lists));
    EXPECT_LE(sic.list_visits() - before, sic.edges()) << "trial " << trial;
    total_edges += sic.edges();
  }
  EXPECT_LE(sic.list_visits(), total_edges);
}

TEST(PeelingDecoder, ClosedRunsAtTwentyThousandTagsReadEveryTag) {
  // N = 2·10^4, where a scan-every-list cancellation takes seconds per
  // run; the linear decoder keeps these well inside the suite's budget.
  constexpr std::size_t kTags = 20000;
  for (const auto& [name, factory] :
       {std::pair{"IRSA", core::MakeIrsaFactory()},
        std::pair{"SEEDED", core::MakeSeededFactory()},
        std::pair{"CRDSA-2", core::MakeCrdsaFactory()}}) {
    const auto m = sim::RunOnce(factory, kTags, 7);
    EXPECT_EQ(m.tags_read, kTags) << name;
  }
}

TEST(PeelingDecoder, SicGoldensReRecordByteIdentical) {
  // The committed goldens of all three decoder users (the seeded one
  // includes cross-frame record opens and resolves) were recorded with
  // the scan-every-list loops; the shared decoder must reproduce them.
  struct Golden {
    const char* file;
    sim::ProtocolFactory factory;
    std::size_t n_tags;
  };
  for (const Golden& g :
       {Golden{"irsa_smoke.trace", core::MakeIrsaFactory(), 200},
        Golden{"seeded_smoke.trace", core::MakeSeededFactory(), 150},
        Golden{"crdsa_smoke.trace", core::MakeCrdsaFactory(), 200}}) {
    std::ifstream in(std::string(ANC_GOLDEN_DIR) + "/" + g.file,
                     std::ios::binary);
    ASSERT_TRUE(in) << g.file;
    const std::string golden((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    sim::ExperimentOptions eo;
    eo.n_tags = g.n_tags;
    eo.runs = 2;
    eo.base_seed = 1;
    trace::MultiRunRecorder recorder(eo.runs);
    eo.trace_factory = recorder.Factory();
    sim::RunExperiment(g.factory, eo);
    EXPECT_TRUE(trace::EncodeTrace(recorder.File()) == golden) << g.file;
  }
}

}  // namespace
}  // namespace anc::protocols
