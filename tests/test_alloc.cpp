// The engine's steady-state slot loop performs no heap allocation. This
// binary replaces the global operator new to count allocations, so it is
// kept apart from anc_tests (whose sanitizer builds own the allocator).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/fcat.h"
#include "sim/population.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace anc::core
