// Tests for RegionBacking (core/store.hpp), the one owner of collector-side
// DMA memory: the 2 MiB huge-page gate, zeroed and pre-faulted bring-up, the
// external-view mode, and that every collector region is allocated by it.
#include "core/store.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/collector.hpp"
#include "core/epoch_rotation.hpp"
#include "core/primitives.hpp"
#include "core/store_backend.hpp"

namespace dart::core {
namespace {

constexpr std::size_t kHuge = RegionBacking::kHugePageBytes;
constexpr std::size_t kPage = 4096;

bool huge_aligned(std::span<const std::byte> m) {
  return reinterpret_cast<std::uintptr_t>(m.data()) % kHuge == 0;
}

bool all_zero(std::span<const std::byte> m) {
  return std::all_of(m.begin(), m.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(RegionBacking, LargeRegionIsHugeAlignedAndZero) {
  // Not a multiple of 2 MiB: the reservation rounds up, the span does not.
  const std::size_t bytes = kHuge + 3 * kPage + 5;
  RegionBacking region(bytes);
  EXPECT_TRUE(region.owning());
  EXPECT_EQ(region.size(), bytes);
  EXPECT_EQ(region.reserved(), 2 * kHuge);
  EXPECT_TRUE(huge_aligned(region.memory()));
  EXPECT_TRUE(all_zero(region.memory()));

  RegionBacking exact(kHuge);  // the gate itself is inclusive
  EXPECT_EQ(exact.reserved(), kHuge);
  EXPECT_TRUE(huge_aligned(exact.memory()));
  EXPECT_TRUE(all_zero(exact.memory()));
}

TEST(RegionBacking, LargeRegionIsResidentAfterBringUp) {
  RegionBacking region(2 * kHuge + kPage);
  const std::size_t pages = (region.size() + kPage - 1) / kPage;
  std::vector<unsigned char> resident(pages);
  ASSERT_EQ(::mincore(region.memory().data(), region.size(), resident.data()),
            0);
  EXPECT_TRUE(std::all_of(resident.begin(), resident.end(),
                          [](unsigned char r) { return (r & 1) != 0; }));
}

TEST(RegionBacking, SmallRegionKeepsItsExactSize) {
  for (const std::size_t bytes :
       {std::size_t{1}, std::size_t{96} << 10, kHuge - 1}) {
    RegionBacking region(bytes);
    EXPECT_TRUE(region.owning());
    EXPECT_EQ(region.size(), bytes);
    EXPECT_EQ(region.reserved(), bytes) << bytes << " B was rounded up";
    EXPECT_TRUE(all_zero(region.memory()));
  }
}

TEST(RegionBacking, ClearZeroesTheRegion) {
  for (const std::size_t bytes : {kPage, kHuge + 100}) {
    RegionBacking region(bytes);
    std::fill(region.memory().begin(), region.memory().end(), std::byte{0xA5});
    region.clear();
    EXPECT_TRUE(all_zero(region.memory())) << bytes;
  }
}

TEST(RegionBacking, ExternalViewAliasesCallerMemory) {
  std::vector<std::byte> memory(kHuge + kPage, std::byte{0x11});
  RegionBacking view{std::span<std::byte>(memory)};
  EXPECT_FALSE(view.owning());
  EXPECT_EQ(view.reserved(), 0u);
  EXPECT_EQ(view.memory().data(), memory.data());
  EXPECT_EQ(view.size(), memory.size());
  view.memory()[7] = std::byte{0x22};
  EXPECT_EQ(memory[7], std::byte{0x22});
  view.clear();
  EXPECT_TRUE(all_zero(memory));
}

// A 2 MiB heap allocation is 2 MiB-aligned only by a 1-in-131072 chance
// (the allocator's chunk header sits in front of it), so alignment shows
// that a collector region came from RegionBacking.
DartConfig large_kv() {
  DartConfig cfg;
  cfg.n_slots = kHuge / 24 + 1;  // 24 B slots: just over 2 MiB
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  return cfg;
}

TEST(RegionOwner, CollectorStoreAndPrimitiveRegions) {
  Collector collector(large_kv(), 0, CollectorEndpoint{});
  EXPECT_TRUE(huge_aligned(collector.store().memory()));
  EXPECT_TRUE(all_zero(collector.store().memory()));

  DtaPrimitivesConfig prims;
  prims.ring.n_entries = kHuge / prims.ring.entry_bytes() + 1;
  prims.counters.n_counters = kHuge / 8 + 1;
  prims.postcards.n_groups =
      kHuge / (prims.postcards.max_hops * prims.postcards.slot_bytes()) + 1;
  ASSERT_TRUE(collector.enable_primitives(prims).ok());
  EXPECT_TRUE(huge_aligned(collector.ring().memory()));
  EXPECT_TRUE(huge_aligned(collector.counters().memory()));
  EXPECT_TRUE(huge_aligned(collector.postcards().memory()));
  EXPECT_EQ(collector.ring().memory().size(), prims.ring.memory_bytes());
  EXPECT_EQ(collector.counters().memory().size(),
            prims.counters.memory_bytes());
  EXPECT_EQ(collector.postcards().memory().size(),
            prims.postcards.memory_bytes());
}

TEST(RegionOwner, SketchCollector) {
  StoreBackendConfig choice;
  choice.kind = StoreBackendKind::kSketch;
  choice.sketch.rows = 2;
  choice.sketch.cols = kHuge / 16 + 1;
  Collector collector(large_kv(), 0, CollectorEndpoint{}, choice);
  EXPECT_TRUE(huge_aligned(collector.backend().memory()));
  EXPECT_EQ(collector.backend().memory().size(), choice.sketch.memory_bytes());
}

TEST(RegionOwner, BothRotatingRegions) {
  RotatingCollector rotating(large_kv(), 0, CollectorEndpoint{});
  EXPECT_TRUE(huge_aligned(rotating.active_store().memory()));
  rotating.flip();
  EXPECT_TRUE(huge_aligned(rotating.active_store().memory()));
}

}  // namespace
}  // namespace dart::core
