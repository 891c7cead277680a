// The engine's steady-state slot loop performs no heap allocation. This
// binary replaces the global operator new to count allocations, so it is
// kept apart from anc_tests (whose sanitizer builds own the allocator).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/factories.h"
#include "core/fcat.h"
#include "deploy/deployment.h"
#include "sim/population.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it and
// frees through the sized delete above): a partial set would pair the
// runtime's new with this file's free.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace anc::core {
namespace {

// Inventory rounds over the same population reach similar peak record
// windows and cascade batches, so once a few warm-up rounds have sized
// every arena and scratch buffer, later rounds step without a single
// allocation: the windowed record stores are cleared at each boundary,
// never regrown. (The boundary itself rebuilds the estimator, so it is
// left out of the count.)
TEST(SlotLoop, SteadyStateRoundsDoNotAllocate) {
  anc::Pcg32 pop_rng(1);
  const auto population = sim::MakePopulation(2000, pop_rng);
  FcatOptions options;
  options.lambda = 2;
  Fcat fcat(population, anc::Pcg32(2), options);
  for (std::uint64_t round = 0; round < 10; ++round) {
    if (round > 0) {
      ASSERT_TRUE(fcat.BeginInventoryRound(/*refresh=*/true));
    }
    const std::int64_t before = g_allocations.load();
    std::uint64_t slots = 0;
    while (!fcat.Finished()) {
      fcat.Step();
      ++slots;
    }
    const std::int64_t allocations = g_allocations.load() - before;
    // Every round re-reads the whole population.
    EXPECT_EQ(fcat.metrics().tags_read, (round + 1) * population.size());
    if (round >= 4) {
      EXPECT_EQ(allocations, 0) << "round " << round << " (" << slots
                                << " slots)";
    }
  }
}

// The same contract over the waveform phy. Once every tag has transmitted
// and the record chunks and resolve scratch are warm, an observed slot
// (synthesis is cached; mixing, noise and demodulation run over scratch)
// and a resolve (the residual lands in per-thread scratch and is copied
// into the reference arena) allocate nothing, with or without the
// demodulation pool.
TEST(SlotLoop, SignalPhySteadyStateRoundsDoNotAllocate) {
  anc::Pcg32 pop_rng(1);
  const auto population = sim::MakePopulation(300, pop_rng);
  for (unsigned demod_pool : {0u, 2u}) {
    FcatSignalOptions options;
    options.signal.snr_db = 25.0;
    options.signal.demod_pool_threads = demod_pool;
    FcatOnSignal fcat(population, anc::Pcg32(2), options);
    for (std::uint64_t round = 0; round < 8; ++round) {
      if (round > 0) {
        ASSERT_TRUE(fcat.BeginInventoryRound(/*refresh=*/true));
      }
      const std::int64_t before = g_allocations.load();
      std::uint64_t slots = 0;
      while (!fcat.Finished()) {
        fcat.Step();
        ++slots;
      }
      const std::int64_t allocations = g_allocations.load() - before;
      EXPECT_EQ(fcat.metrics().tags_read, (round + 1) * population.size());
      if (round >= 4) {
        EXPECT_EQ(allocations, 0) << "round " << round << " (" << slots
                                  << " slots, demod pool " << demod_pool
                                  << ")";
      }
    }
  }
}

// The same contract for a multi-reader deployment with record sharing:
// a global TDMA slot (scheduler pick, per-reader steps, neighbour
// broadcasts and their cascades, inventory merge) allocates nothing once
// every reader's scratch is warm. Warming takes longer than for one
// reader: a round in which any of the nine readers sets a new peak of
// open records (or of record-arena use) still grows that arena, and with
// 230-320 tags per reader such peaks keep turning up for a dozen rounds
// (at this seed the last one is in round 12; rounds 13-59 allocate
// nothing).
TEST(SlotLoop, DeploymentSteadyStateRoundsDoNotAllocate) {
  anc::Pcg32 pop_rng(1);
  const auto population = sim::MakePopulation(1500, pop_rng);
  deploy::DeploymentConfig config;
  config.floor = {60.0, 60.0};
  config.reader_rows = 3;
  config.reader_cols = 3;
  config.share_records = true;
  FcatOptions options;
  options.lambda = 2;
  deploy::DeploymentProtocol deployment(population, anc::Pcg32(2), config,
                                        MakeFcatFactory(options));
  std::uint64_t injected_before = 0;
  for (std::uint64_t round = 0; round < 24; ++round) {
    if (round > 0) {
      ASSERT_TRUE(deployment.BeginInventoryRound(/*refresh=*/true));
    }
    const std::int64_t before = g_allocations.load();
    std::uint64_t slots = 0;
    while (!deployment.Finished()) {
      deployment.Step();
      ++slots;
    }
    const std::int64_t allocations = g_allocations.load() - before;
    const sim::RunMetrics& metrics = deployment.metrics();
    EXPECT_EQ(metrics.tags_read, population.size());
    // Every round re-reads the floor and shares across overlap zones.
    EXPECT_GT(metrics.ids_injected, injected_before) << "round " << round;
    injected_before = metrics.ids_injected;
    if (round >= 16) {
      EXPECT_EQ(allocations, 0) << "round " << round << " (" << slots
                                << " global slots)";
    }
  }
}

}  // namespace
}  // namespace anc::core
