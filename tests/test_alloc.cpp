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

}  // namespace
}  // namespace anc::core
