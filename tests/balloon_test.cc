// Unit tests for the virtio-balloon device.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/balloon.h"
#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {
namespace {

class BalloonTest : public testing::Test {
 protected:
  void SetUp() override {
    memmap_ = std::make_unique<MemMap>(GiB(1));
    zone_ = std::make_unique<Zone>(0, ZoneType::kMovable, "mv", memmap_.get());
    for (BlockIndex b = 0; b < 8; ++b) {
      memmap_->InitBlock(b);
      zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
    host_ = std::make_unique<HostMemory>(GiB(8));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    vm_ = hv_->RegisterVm("vm", 1);
    balloon_ = std::make_unique<BalloonDevice>(memmap_.get(), &cost_, hv_.get(), vm_);
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<MemMap> memmap_;
  std::unique_ptr<Zone> zone_;
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  VmId vm_ = 0;
  std::unique_ptr<BalloonDevice> balloon_;
};

TEST_F(BalloonTest, InflateReservesPages) {
  const BalloonOutcome out = balloon_->Inflate(MiB(4), zone_.get(), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.pages, MiB(4) / kPageSize);
  EXPECT_EQ(balloon_->held_pages(), out.pages);
  EXPECT_EQ(zone_->allocated_pages(), out.pages);
}

TEST_F(BalloonTest, PerPageCostDominatedByExits) {
  const BalloonOutcome out = balloon_->Inflate(MiB(8), zone_.get(), 0);
  const uint64_t pages = MiB(8) / kPageSize;
  EXPECT_EQ(out.breakdown.rest,
            static_cast<DurationNs>(pages) * cost_.balloon_guest_page);
  EXPECT_EQ(out.breakdown.vm_exits,
            static_cast<DurationNs>(pages) * cost_.balloon_exit_page);
  // Paper Fig 5: ~81% of balloon reclaim is exit/host work.
  const double exit_frac =
      static_cast<double>(out.breakdown.vm_exits) / static_cast<double>(out.latency());
  EXPECT_GT(exit_frac, 0.75);
  EXPECT_LT(exit_frac, 0.90);
}

TEST_F(BalloonTest, InflatedPagesAreUnmovableKernelPages) {
  balloon_->Inflate(kPageSize * 10, zone_.get(), 0);
  uint64_t kernel_pages = 0;
  for (Pfn pfn = 0; pfn < memmap_->span_pages(); ++pfn) {
    const Page& p = memmap_->page(pfn);
    if (p.state == PageState::kAllocated && p.kind == PageKind::kKernel) {
      ++kernel_pages;
    }
  }
  EXPECT_EQ(kernel_pages, 10u);
}

TEST(BalloonRunTest, InflateMaterializesNothingAndDeflateOnlyWhatItFreesInto) {
  // 3 GiB onlined into a shuffled zone: its free lists hold max-order
  // chunks in random order, and a 2 GiB inflation takes 512 of them whole.
  CostModel cost = CostModel::Default();
  MemMap memmap(GiB(3));
  Rng shuffle(11);
  Zone zone(0, ZoneType::kMovable, "mv", &memmap, &shuffle);
  for (BlockIndex b = 0; b < memmap.block_count(); ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  HostMemory host(GiB(8));
  Hypervisor hv(&host, &cost);
  const VmId vm = hv.RegisterVm("vm", 1);
  BalloonDevice balloon(&memmap, &cost, &hv, vm);
  const MemMap& m = memmap;  // Reads that must not materialize.
  const BalloonOutcome out = balloon.Inflate(GiB(2), &zone, 0);
  ASSERT_TRUE(out.complete);
  EXPECT_EQ(memmap.materialized_peak_granules(), 0u);
  // Every frame reads as a held order-0 kernel page; the held pages'
  // slots run 0..n-1 over the whole inflation.
  uint64_t held = 0;
  std::set<uint32_t> slots;
  for (Pfn pfn = 0; pfn < memmap.span_pages(); ++pfn) {
    const Page p = m.page(pfn);
    if (p.state == PageState::kAllocated) {
      ASSERT_TRUE(p.kind == PageKind::kKernel && p.head && p.order == 0) << pfn;
      slots.insert(p.owner_slot);
      ++held;
    }
  }
  EXPECT_EQ(held, out.pages);
  EXPECT_EQ(slots.size(), out.pages);
  EXPECT_EQ(*slots.rbegin(), out.pages - 1);
  EXPECT_EQ(memmap.materialized_granules(), 0u);

  // Deflating 3 MiB frees the last 768 held pages: all of the last
  // granule (which coalesces back to a free THP chunk and drops its
  // frames) and half of the one before it, the only granule left split.
  balloon.Deflate(MiB(3), memmap, &zone);
  EXPECT_EQ(memmap.materialized_peak_granules(), 1u);
  EXPECT_EQ(memmap.materialized_granules(), 1u);
  uint32_t split = 0;
  for (Pfn g = 0; g < memmap.span_pages(); g += kGranulePages) {
    if (memmap.Materialized(g)) {
      ++split;
      EXPECT_EQ(m.page(g).state, PageState::kAllocated);
      EXPECT_EQ(m.page(g + kGranulePages - 1).state, PageState::kFree);
    }
  }
  EXPECT_EQ(split, 1u);
  EXPECT_TRUE(zone.CheckFreeLists());
}

TEST_F(BalloonTest, InflateReleasesHostBacking) {
  // Pre-populate host backing for the first block.
  hv_->NestedFaultPopulate(vm_, 1, kMemoryBlockBytes, 0);
  memmap_->PopulateRange(0, kPagesPerBlock);
  const uint64_t populated_before = host_->populated();
  balloon_->Inflate(MiB(4), zone_.get(), 0);
  EXPECT_EQ(host_->populated(), populated_before - MiB(4));
}

TEST_F(BalloonTest, InflateStallsWhenZoneExhausted) {
  // Drain the zone except a sliver.
  while (zone_->free_pages() > 100) {
    if (zone_->Alloc(kMaxPageOrder, PageKind::kAnon, 1, 0) == kInvalidPfn) {
      break;
    }
  }
  while (zone_->Alloc(0, PageKind::kAnon, 1, 0) != kInvalidPfn &&
         zone_->free_pages() > 10) {
  }
  const BalloonOutcome out = balloon_->Inflate(MiB(1), zone_.get(), 0);
  EXPECT_FALSE(out.complete);
  EXPECT_LT(out.pages, MiB(1) / kPageSize);
}

TEST_F(BalloonTest, DeflateReturnsPages) {
  balloon_->Inflate(MiB(2), zone_.get(), 0);
  const uint64_t held = balloon_->held_pages();
  const DurationNs lat = balloon_->Deflate(MiB(1), *memmap_, zone_.get());
  EXPECT_GT(lat, 0);
  EXPECT_EQ(balloon_->held_pages(), held - MiB(1) / kPageSize);
  EXPECT_EQ(zone_->allocated_pages(), balloon_->held_pages());
}

TEST_F(BalloonTest, DeflateMoreThanHeldClamp) {
  balloon_->Inflate(MiB(1), zone_.get(), 0);
  balloon_->Deflate(MiB(100), *memmap_, zone_.get());
  EXPECT_EQ(balloon_->held_pages(), 0u);
  EXPECT_EQ(zone_->allocated_pages(), 0u);
  EXPECT_TRUE(zone_->CheckFreeLists());
}

TEST_F(BalloonTest, BatchingReducesNothingOnReleaseAccounting) {
  // Batching (HarvestVM-style ablation knob) changes exit counts, not the
  // amount of memory released.
  CostModel batched = cost_;
  batched.balloon_batch_pages = 256;
  BalloonDevice dev(memmap_.get(), &batched, hv_.get(), vm_);
  const BalloonOutcome out = dev.Inflate(MiB(4), zone_.get(), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.pages, MiB(4) / kPageSize);
}

TEST_F(BalloonTest, ScalingIsLinearInSize) {
  const BalloonOutcome small = balloon_->Inflate(MiB(8), zone_.get(), 0);
  BalloonDevice dev2(memmap_.get(), &cost_, hv_.get(), vm_);
  const BalloonOutcome big = dev2.Inflate(MiB(32), zone_.get(), 0);
  EXPECT_NEAR(static_cast<double>(big.latency()) / static_cast<double>(small.latency()),
              4.0, 0.01);
}

}  // namespace
}  // namespace squeezy
