// Unit tests for the memory map and block state machine.
#include <gtest/gtest.h>

#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"
#include "tests/memmap_test_util.h"

namespace squeezy {
namespace {

TEST(MemMapTest, SpanRoundsUpToBlocks) {
  MemMap m(kMemoryBlockBytes + 1);
  EXPECT_EQ(m.block_count(), 2u);
  EXPECT_EQ(m.span_pages(), 2u * kPagesPerBlock);
}

TEST(MemMapTest, BlocksStartAbsentWithHolePages) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.block_count(), 8u);
  for (BlockIndex b = 0; b < 8; ++b) {
    EXPECT_EQ(m.block_state(b), BlockState::kAbsent);
  }
  EXPECT_EQ(m.page(0).state, PageState::kHole);
  EXPECT_EQ(m.page(m.span_pages() - 1).state, PageState::kHole);
}

TEST(MemMapTest, InitBlockMakesPagesOffline) {
  MemMap m(GiB(1));
  m.InitBlock(3);
  EXPECT_EQ(m.block_state(3), BlockState::kPresent);
  const Pfn start = MemMap::BlockStart(3);
  EXPECT_EQ(m.page(start).state, PageState::kOffline);
  EXPECT_EQ(m.page(start + kPagesPerBlock - 1).state, PageState::kOffline);
  // Neighbours untouched.
  EXPECT_EQ(m.page(start - 1).state, PageState::kHole);
  EXPECT_EQ(m.page(start + kPagesPerBlock).state, PageState::kHole);
}

TEST(MemMapTest, TeardownBlockRestoresHoles) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.set_block_state(0, BlockState::kOffline);
  m.TeardownBlock(0);
  EXPECT_EQ(m.block_state(0), BlockState::kAbsent);
  EXPECT_EQ(m.page(0).state, PageState::kHole);
}

TEST(MemMapTest, BlockIndexMath) {
  EXPECT_EQ(MemMap::BlockOf(0), 0u);
  EXPECT_EQ(MemMap::BlockOf(kPagesPerBlock - 1), 0u);
  EXPECT_EQ(MemMap::BlockOf(kPagesPerBlock), 1u);
  EXPECT_EQ(MemMap::BlockStart(2), 2u * kPagesPerBlock);
}

TEST(MemMapTest, CountBlockPagesByState) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  EXPECT_EQ(m.CountBlockPages(0, PageState::kOffline), uint64_t{kPagesPerBlock});
  EXPECT_EQ(m.CountBlockPages(0, PageState::kFree), 0u);
  EXPECT_EQ(m.CountBlockPages(1, PageState::kHole), uint64_t{kPagesPerBlock});
}

TEST(MemMapTest, CountBlocksByState) {
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.InitBlock(5);
  EXPECT_EQ(m.CountBlocks(BlockState::kAbsent), 6u);
  EXPECT_EQ(m.CountBlocks(BlockState::kPresent), 2u);
}

TEST(MemMapTest, FolioHeadResolvesFromTail) {
  MemMap m(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  m.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn head = zone.Alloc(kThpOrder, PageKind::kAnon, 1, 0);
  ASSERT_NE(head, kInvalidPfn);
  for (uint32_t i = 0; i < (1u << kThpOrder); i += 37) {
    EXPECT_EQ(m.FolioHead(head + i), head);
  }
}

TEST(MemMapTest, HostPopulatedSurvivesTeardown) {
  // The hypervisor owns host backing; guest-side teardown must not lose it
  // (it is released explicitly via the unplug acknowledgement).
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.PopulateRange(17, 1);
  m.set_block_state(0, BlockState::kOffline);
  m.TeardownBlock(0);
  EXPECT_TRUE(m.host_populated(17));
}

TEST(MemMapTest, ConstReadsNeverMaterialize) {
  MemMap m(GiB(1));
  const MemMap& cm = m;
  // A fresh map holds no chunks at all: span RSS is bounded by touch, not
  // by span size.
  EXPECT_EQ(m.materialized_granules(), 0u);
  for (Pfn pfn = 0; pfn < cm.span_pages(); pfn += kPagesPerBlock / 3) {
    EXPECT_EQ(cm.page(pfn).state, PageState::kHole);
    EXPECT_FALSE(cm.host_populated(pfn));
  }
  EXPECT_EQ(m.materialized_granules(), 0u);
  EXPECT_EQ(m.materialized_bytes(), 0u);
  for (BlockIndex b = 0; b < m.block_count(); ++b) {
    EXPECT_FALSE(BlockMaterialized(m, b));
  }
}

TEST(MemMapTest, MutableTouchMaterializesOneChunk) {
  MemMap m(GiB(1));
  Page& p = m.page(MemMap::BlockStart(3) + 7);
  // First mutable touch sees the flat array's initial state.
  EXPECT_EQ(p.state, PageState::kHole);
  EXPECT_EQ(m.materialized_granules(), 1u);
  EXPECT_TRUE(BlockMaterialized(m, 3));
  EXPECT_FALSE(BlockMaterialized(m, 2));
  EXPECT_EQ(m.materialized_bytes(), MemMap::GranuleBytes());
  EXPECT_EQ(m.materialized_peak_granules(), 1u);
}

TEST(MemMapTest, TeardownFreesChunkWhenNothingPopulated) {
  // The real unplug path (HotRemoveBlock) clears host backing before
  // tearing down — the chunk's sim memory must come back.
  MemMap m(GiB(1));
  m.InitBlock(0);
  EXPECT_EQ(m.materialized_granules(), 0u);  // A hot-added block is a summary.
  m.page(5);  // A mutable touch materializes it.
  EXPECT_EQ(m.materialized_granules(), 1u);
  m.set_block_state(0, BlockState::kOffline);
  m.TeardownBlock(0);
  EXPECT_FALSE(BlockMaterialized(m, 0));
  EXPECT_EQ(m.materialized_granules(), 0u);
  EXPECT_EQ(m.materialized_peak_granules(), 1u);  // Peak is sticky.
  // The freed block reads as holes again and can be re-initialized.
  const MemMap& cm = m;
  EXPECT_EQ(cm.page(0).state, PageState::kHole);
  m.InitBlock(0);
  EXPECT_EQ(m.page(0).state, PageState::kOffline);
}

TEST(MemMapTest, TeardownFreesChunkWhileHostBackingSurvives) {
  // Backing lives outside the chunk: teardown frees the chunk even though
  // host backing survives it (see HostPopulatedSurvivesTeardown), and the
  // bits stay until the hypervisor clears them.
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.page(5);  // Materialize.
  EXPECT_EQ(m.PopulateRange(17, 3), 3u);
  m.set_block_state(0, BlockState::kOffline);
  m.TeardownBlock(0);
  EXPECT_FALSE(BlockMaterialized(m, 0));
  EXPECT_EQ(m.materialized_granules(), 0u);
  EXPECT_TRUE(m.host_populated(17));
  EXPECT_TRUE(m.host_populated(19));
  EXPECT_EQ(m.ClearHostPopulated(0), 3u);
  EXPECT_FALSE(m.host_populated(17));
  EXPECT_EQ(m.ClearHostPopulated(0), 0u);
}

TEST(MemMapTest, InitBlockDropsSurvivingHostBacking) {
  // Re-adding a block whose teardown kept host flags starts it afresh.
  MemMap m(GiB(1));
  m.InitBlock(0);
  m.PopulateRange(17, 1);
  m.set_block_state(0, BlockState::kOffline);
  m.TeardownBlock(0);
  m.InitBlock(0);
  EXPECT_FALSE(BlockMaterialized(m, 0));
  const MemMap& cm = m;
  EXPECT_EQ(cm.page(17).state, PageState::kOffline);
  EXPECT_FALSE(cm.host_populated(17));
  EXPECT_EQ(m.ClearHostPopulated(0), 0u);
}

TEST(MemMapTest, UntouchedBlockCycleMaterializesNothing) {
  // plug -> online -> offline -> hot-remove of a block nothing was ever
  // allocated from, in a shuffled and an unshuffled zone.
  for (const bool shuffled : {false, true}) {
    MemMap m(GiB(1));
    Rng rng(11);
    Zone zone(0, ZoneType::kMovable, "z", &m, shuffled ? &rng : nullptr);
    const Pfn start = MemMap::BlockStart(2);
    m.InitBlock(2);
    EXPECT_EQ(m.CountBlockPages(2, PageState::kOffline), kPagesPerBlock);
    EXPECT_FALSE(BlockMaterialized(m, 2));
    zone.AddFreeRange(start, kPagesPerBlock);
    EXPECT_EQ(m.CountBlockPages(2, PageState::kFree), kPagesPerBlock);
    EXPECT_FALSE(BlockMaterialized(m, 2));
    EXPECT_EQ(zone.free_chunks(kMaxPageOrder), 32u);
    EXPECT_TRUE(zone.CheckFreeLists());
    EXPECT_EQ(zone.IsolateFreeRange(start, kPagesPerBlock), uint64_t{kPagesPerBlock});
    EXPECT_EQ(m.CountBlockPages(2, PageState::kIsolated), kPagesPerBlock);
    EXPECT_FALSE(BlockMaterialized(m, 2));
    EXPECT_EQ(zone.free_pages(), 0u);
    zone.RetireRange(start, kPagesPerBlock);
    EXPECT_EQ(m.CountBlockPages(2, PageState::kOffline), kPagesPerBlock);
    EXPECT_FALSE(BlockMaterialized(m, 2));
    EXPECT_EQ(zone.managed_pages(), 0u);
    EXPECT_EQ(m.ClearHostPopulated(2), 0u);
    m.set_block_state(2, BlockState::kOffline);
    m.TeardownBlock(2);
    EXPECT_EQ(m.CountBlockPages(2, PageState::kHole), kPagesPerBlock);
    EXPECT_FALSE(BlockMaterialized(m, 2));
    EXPECT_EQ(m.materialized_peak_granules(), 0u);
  }
}

TEST(MemMapTest, ConstReadsSynthesizeSummaryFrames) {
  MemMap m(GiB(1));
  Zone zone(3, ZoneType::kMovable, "z", &m);
  m.InitBlock(1);
  zone.AddFreeRange(MemMap::BlockStart(1), kPagesPerBlock);
  const MemMap& cm = m;
  const Pfn head = MemMap::BlockStart(1) + (5u << kMaxPageOrder);
  const Page h = cm.page(head);
  EXPECT_EQ(h.state, PageState::kFree);
  EXPECT_TRUE(h.head);
  EXPECT_EQ(h.order, kMaxPageOrder);
  EXPECT_EQ(h.zone_id, 3);
  const Page t = cm.page(head + 1);
  EXPECT_EQ(t.state, PageState::kFree);
  EXPECT_FALSE(t.head);
  EXPECT_EQ(t.order, kMaxPageOrder);
  EXPECT_EQ(cm.FolioHead(head + 77), head);
  EXPECT_EQ(m.materialized_granules(), 0u);
  // Materializing stamps exactly the frames the summary synthesized.
  EXPECT_EQ(m.page(head).head, true);
  EXPECT_EQ(m.page(head + 1).head, false);
  EXPECT_EQ(m.page(head + 1).zone_id, 3);
  EXPECT_EQ(m.materialized_granules(), 1u);
}

TEST(MemMapTest, CountBlockPagesOnAbsentChunk) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.CountBlockPages(2, PageState::kHole), uint64_t{kPagesPerBlock});
  EXPECT_EQ(m.CountBlockPages(2, PageState::kOffline), 0u);
  EXPECT_EQ(m.materialized_granules(), 0u);  // Counting must not materialize.
}

TEST(MemMapTest, CountBlockPagesOnSummarizedBlocks) {
  // Each summary answers as its per-page twin (a block materialized by a
  // mutable touch) does, and counting materializes nothing.
  MemMap m(GiB(1));
  MemMap twin(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &m);
  Zone twin_zone(0, ZoneType::kMovable, "z", &twin);
  auto expect_same = [&](BlockIndex b) {
    const uint32_t before = m.materialized_granules();
    for (const PageState st : {PageState::kHole, PageState::kFree, PageState::kAllocated,
                               PageState::kIsolated, PageState::kOffline}) {
      EXPECT_EQ(m.CountBlockPages(b, st), twin.CountBlockPages(b, st));
    }
    EXPECT_EQ(m.materialized_granules(), before);
  };
  for (BlockIndex b = 0; b < 3; ++b) {
    m.InitBlock(b);
    twin.InitBlock(b);
    twin.page(MemMap::BlockStart(b));
  }
  expect_same(0);
  zone.AddFreeRange(MemMap::BlockStart(1), 2 * kPagesPerBlock);
  twin_zone.AddFreeRange(MemMap::BlockStart(1), 2 * kPagesPerBlock);
  expect_same(1);
  zone.IsolateFreeRange(MemMap::BlockStart(2), kPagesPerBlock);
  twin_zone.IsolateFreeRange(MemMap::BlockStart(2), kPagesPerBlock);
  expect_same(2);
  expect_same(5);
  EXPECT_EQ(m.materialized_granules(), 0u);
  // Onlining stamps the twin's blocks 1 and 2 as max-order chunks, which
  // drops their touched granules; only offline block 0 keeps its frames.
  EXPECT_EQ(twin.materialized_granules(), 1u);
}

TEST(MemMapTest, PopulateRangeCountsNewFramesAcrossBlocks) {
  MemMap m(GiB(1));
  const Pfn boundary = MemMap::BlockStart(2);
  // Straddles blocks 1 and 2, word-unaligned at both ends.
  EXPECT_EQ(m.PopulateRange(boundary - 70, 200), 200u);
  EXPECT_FALSE(m.host_populated(boundary - 71));
  EXPECT_TRUE(m.host_populated(boundary - 70));
  EXPECT_TRUE(m.host_populated(boundary));
  EXPECT_TRUE(m.host_populated(boundary + 129));
  EXPECT_FALSE(m.host_populated(boundary + 130));
  // Overlap counts only the frames that were unbacked.
  EXPECT_EQ(m.PopulateRange(boundary + 100, 64), 34u);
  EXPECT_EQ(m.PopulateRange(boundary - 70, 200), 0u);
  EXPECT_TRUE(m.Unpopulate(boundary));
  EXPECT_FALSE(m.Unpopulate(boundary));
  EXPECT_FALSE(m.Unpopulate(MemMap::BlockStart(5)));  // No bitmap at all.
  EXPECT_EQ(m.ClearHostPopulated(1), 70u);
  EXPECT_EQ(m.ClearHostPopulated(2), 163u);
  // Backing never touches the chunks.
  EXPECT_EQ(m.materialized_granules(), 0u);
}

TEST(MemMapTest, PopulateWholeBlock) {
  MemMap m(GiB(1));
  EXPECT_EQ(m.PopulateRange(MemMap::BlockStart(3), kPagesPerBlock),
            static_cast<uint64_t>(kPagesPerBlock));
  EXPECT_TRUE(m.host_populated(MemMap::BlockStart(3) + kPagesPerBlock - 1));
  EXPECT_FALSE(m.host_populated(MemMap::BlockStart(4)));
  EXPECT_EQ(m.ClearHostPopulated(3), static_cast<uint64_t>(kPagesPerBlock));
}

TEST(MemMapTest, OccupancyCounterStartsZero) {
  MemMap m(GiB(1));
  for (BlockIndex b = 0; b < m.block_count(); ++b) {
    EXPECT_EQ(m.BlockOccupied(b), 0u);
  }
  m.AdjustBlockAllocated(0, 5);
  EXPECT_EQ(m.BlockOccupied(0), 5u);
  m.AdjustBlockAllocated(3, -5);  // pfn 3 is still block 0.
  EXPECT_EQ(m.BlockOccupied(0), 0u);
}

}  // namespace
}  // namespace squeezy
