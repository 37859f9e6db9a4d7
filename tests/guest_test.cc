// Unit/integration tests for the guest kernel: processes, fault paths,
// fork/exit, OOM, vanilla hot(un)plug policy.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <set>

#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/sim/cost_model.h"
#include "tests/memmap_test_util.h"

namespace squeezy {
namespace {

class GuestTest : public testing::Test {
 protected:
  void SetUp() override {
    host_ = std::make_unique<HostMemory>(GiB(32));
    hv_ = std::make_unique<Hypervisor>(host_.get(), &cost_);
    GuestConfig cfg;
    cfg.name = "test-vm";
    cfg.vcpus = 2;
    cfg.base_memory = MiB(512);
    cfg.hotplug_region = GiB(2);
    cfg.shuffle_allocator = false;  // Deterministic placement for tests.
    guest_ = std::make_unique<GuestKernel>(cfg, hv_.get());
  }

  CostModel cost_ = CostModel::Default();
  std::unique_ptr<HostMemory> host_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<GuestKernel> guest_;
};

TEST_F(GuestTest, BootBringsUpNormalZone) {
  // 512 MiB base minus the pinned kernel footprint is allocatable.
  EXPECT_EQ(guest_->normal_zone().managed_pages(), MiB(512) / kPageSize);
  EXPECT_GT(guest_->normal_zone().allocated_pages(), 0u);  // Kernel tax.
  EXPECT_EQ(guest_->movable_zone().managed_pages(), 0u);   // Nothing plugged.
  EXPECT_EQ(guest_->hotplug_first_block(), 4u);
  EXPECT_EQ(guest_->hotplug_nr_blocks(), 16u);
}

TEST_F(GuestTest, PlugGrowsMovableZone) {
  const PlugOutcome out = guest_->PlugMemory(MiB(768), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(guest_->movable_zone().managed_pages(), MiB(768) / kPageSize);
  EXPECT_EQ(guest_->online_bytes(), MiB(512) + MiB(768));
}

TEST_F(GuestTest, TouchAnonFaultsThpFolios) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(64), 0);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.bytes, MiB(64));
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(64));
  EXPECT_GT(r.latency, 0);
  EXPECT_GT(r.nested, 0);  // Freshly plugged memory needs host backing.
  // THP-sized folios: 32 folios for 64 MiB.
  EXPECT_EQ(guest_->process(pid).folios().size(), 32u);
}

TEST_F(GuestTest, SecondTouchHasNoNestedFaults) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid a = guest_->CreateProcess();
  guest_->TouchAnon(a, MiB(64), 0);
  guest_->Exit(a);
  // Same memory re-touched: host backing already present.
  const Pid b = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(b, MiB(64), 0);
  EXPECT_EQ(r.nested, 0);
}

TEST_F(GuestTest, SubPageRoundingAndSmallTouches) {
  guest_->PlugMemory(MiB(128), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, 1, 0);  // One byte -> one page.
  EXPECT_EQ(r.bytes, kPageSize);
  const TouchResult r2 = guest_->TouchAnon(pid, kPageSize * 3, 0);
  EXPECT_EQ(r2.bytes, kPageSize * 3);
  EXPECT_EQ(guest_->process(pid).anon_bytes(), kPageSize * 4);
}

TEST_F(GuestTest, AnonSpillsToNormalZoneWhenMovableFull) {
  guest_->PlugMemory(kMemoryBlockBytes, 0);  // 128 MiB movable.
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(192), 0);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(192));
  EXPECT_GT(guest_->normal_zone().allocated_pages(), MiB(64) / kPageSize);
}

TEST_F(GuestTest, OomKillsProcessWhenEverythingFull) {
  guest_->PlugMemory(kMemoryBlockBytes, 0);
  const Pid pid = guest_->CreateProcess();
  // Demand far beyond base + plugged.
  const TouchResult r = guest_->TouchAnon(pid, GiB(1), 0);
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(guest_->process(pid).state(), ProcessState::kOomKilled);
  EXPECT_FALSE(guest_->Alive(pid));
  // Its memory was released.
  EXPECT_EQ(guest_->process(pid).anon_bytes(), 0u);
}

TEST_F(GuestTest, ExitFreesAllAnonMemory) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(100), 0);
  const uint64_t allocated_before = guest_->movable_zone().allocated_pages();
  EXPECT_GT(allocated_before, 0u);
  guest_->Exit(pid);
  EXPECT_EQ(guest_->movable_zone().allocated_pages(), 0u);
  EXPECT_EQ(guest_->live_process_count(), 0u);
  EXPECT_TRUE(guest_->movable_zone().CheckFreeLists());
}

TEST_F(GuestTest, FreeAnonPartialRelease) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(100), 0);
  const uint64_t freed = guest_->FreeAnon(pid, MiB(40));
  EXPECT_GE(freed, MiB(40));
  EXPECT_LE(freed, MiB(42));  // Folio granularity.
  EXPECT_EQ(guest_->process(pid).anon_bytes(), MiB(100) - freed);
}

TEST_F(GuestTest, TouchFilePopulatesSharedCacheOnce) {
  guest_->PlugMemory(MiB(256), 0);
  const int32_t file = guest_->CreateFile("deps", MiB(32));
  const Pid a = guest_->CreateProcess();
  const TouchResult first = guest_->TouchFile(a, file, MiB(32), 0);
  EXPECT_EQ(guest_->page_cache().cached_pages(file), MiB(32) / kPageSize);

  const Pid b = guest_->CreateProcess();
  const TouchResult second = guest_->TouchFile(b, file, MiB(32), 0);
  // Cache hit: no IO, dramatically cheaper (this is the N:1 sharing win).
  EXPECT_LT(second.latency, first.latency / 10);
  // Cache population is not duplicated.
  EXPECT_EQ(guest_->page_cache().cached_pages(file), MiB(32) / kPageSize);
}

TEST_F(GuestTest, FileRereadCostsScaleWithSize) {
  guest_->PlugMemory(MiB(512), 0);
  const int32_t small = guest_->CreateFile("small", MiB(8));
  const int32_t large = guest_->CreateFile("large", MiB(64));
  const Pid pid = guest_->CreateProcess();
  const DurationNs small_cost = guest_->TouchFile(pid, small, MiB(8), 0).latency;
  const DurationNs large_cost = guest_->TouchFile(pid, large, MiB(64), 0).latency;
  EXPECT_NEAR(static_cast<double>(large_cost) / static_cast<double>(small_cost), 8.0,
              0.5);
}

TEST_F(GuestTest, ForkSharesPartitionAndFiles) {
  const int32_t file = guest_->CreateFile("lib", MiB(1));
  const Pid parent = guest_->CreateProcess();
  guest_->process(parent).MapFile(file);
  const Pid child = guest_->Fork(parent);
  EXPECT_EQ(guest_->process(child).parent(), parent);
  EXPECT_EQ(guest_->process(child).files().size(), 1u);
  EXPECT_EQ(guest_->live_process_count(), 2u);
}

TEST_F(GuestTest, VanillaUnplugAfterProcessExitMigratesSurvivors) {
  guest_->PlugMemory(MiB(512), 0);
  // Two processes interleave (ascending allocation interleaves at folio
  // granularity as they alternate), filling 3 of the 4 plugged blocks.
  const Pid a = guest_->CreateProcess();
  const Pid b = guest_->CreateProcess();
  for (int i = 0; i < 24; ++i) {
    guest_->TouchAnon(a, MiB(8), 0);
    guest_->TouchAnon(b, MiB(8), 0);
  }
  // Kill A; reclaim more than the fully-free spare block so at least one
  // half-occupied block must be evacuated.
  guest_->Exit(a);
  const UnplugOutcome out = guest_->UnplugMemory(MiB(256), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_GT(out.pages_migrated, 0u);
  // B's memory is intact after the migration.
  EXPECT_EQ(guest_->process(b).anon_bytes(), MiB(192));
  // Every folio B owns is still allocated and owned by B.
  for (const FolioRef& f : guest_->process(b).folios()) {
    if (f.head == kInvalidPfn) {
      continue;
    }
    const Page& p = guest_->memmap().page(f.head);
    EXPECT_EQ(p.state, PageState::kAllocated);
    EXPECT_EQ(p.owner, b);
  }
}

TEST_F(GuestTest, BalloonReclaimShrinksMovable) {
  guest_->PlugMemory(MiB(256), 0);
  const BalloonOutcome out = guest_->BalloonReclaim(MiB(64), 0);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(guest_->balloon().held_bytes(), MiB(64));
}

TEST_F(GuestTest, AllocatedBytesAccountsAllZones) {
  guest_->PlugMemory(MiB(256), 0);
  const uint64_t boot = guest_->allocated_bytes();
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(32), 0);
  EXPECT_EQ(guest_->allocated_bytes(), boot + MiB(32));
}

TEST_F(GuestTest, NestedFaultLatencyMatchesBackingGranules) {
  guest_->PlugMemory(MiB(256), 0);
  const Pid pid = guest_->CreateProcess();
  const TouchResult r = guest_->TouchAnon(pid, MiB(64), 0);
  // One exit per backing granule of freshly plugged memory.
  const int64_t granules = static_cast<int64_t>(MiB(64) / cost_.host_thp_bytes);
  EXPECT_EQ(r.nested, granules * cost_.nested_fault_exit);
}

TEST_F(GuestTest, HostPopulationGrowsWithTouches) {
  guest_->PlugMemory(MiB(256), 0);
  const uint64_t before = host_->populated();
  const Pid pid = guest_->CreateProcess();
  guest_->TouchAnon(pid, MiB(64), 0);
  EXPECT_EQ(host_->populated(), before + MiB(64));
  // Unplug after exit releases it back.
  guest_->Exit(pid);
  guest_->UnplugMemory(MiB(256), 0);
  EXPECT_EQ(host_->populated(), before);
}

// --- File faults, one run per zone ----------------------------------------------
//
// The values below were recorded from the per-page fault loops (one
// Zone::Alloc per missing page) that the run allocation replaced; the
// scenarios fault across split chunks, fragmented free lists, cached
// pages on both sides of the point where the zone runs out, and (for
// TouchFile) 2 MiB host granules that straddle the runs.

// What a file's page-cache mapping holds: the number of cached pages and
// two position-weighted sums of their pfns.
struct CacheDigest {
  uint64_t cached = 0;
  uint64_t pfn_sum = 0;
  uint64_t weighted = 0;

  bool operator==(const CacheDigest& o) const {
    return cached == o.cached && pfn_sum == o.pfn_sum && weighted == o.weighted;
  }
};

std::ostream& operator<<(std::ostream& os, const CacheDigest& d) {
  return os << "{" << d.cached << ", " << d.pfn_sum << ", " << d.weighted << "}";
}

CacheDigest Digest(const PageCache& cache, int32_t file) {
  CacheDigest d;
  for (uint64_t idx = 0; idx < cache.FilePages(file); ++idx) {
    if (cache.Cached(file, idx)) {
      ++d.cached;
      d.pfn_sum += cache.Lookup(file, idx);
      d.weighted += (idx + 1) * cache.Lookup(file, idx);
    }
  }
  return d;
}

using Counters = std::array<uint64_t, kMaxPageOrder + 3>;

// free_pages, allocated_pages, then the free chunks of every order.
Counters ZoneCounters(const Zone& z) {
  Counters c{};
  c[0] = z.free_pages();
  c[1] = z.allocated_pages();
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    c[2 + order] = z.free_chunks(order);
  }
  return c;
}

// The host's books of the VM: nested faults, exits, populated bytes.
std::array<uint64_t, 3> HostBooks(const Hypervisor& hv, VmId vm) {
  const VmStats& st = hv.stats(vm);
  return {st.nested_faults, st.exits, st.populated_bytes};
}

// Recorded from the per-page fault loops.
constexpr DurationNs kTouchOomLatency = 259940012;
constexpr DurationNs kTouchOomNested = 112000;
constexpr CacheDigest kTouchOomCache{31217, 4624454973, 74825290376402};
constexpr uint64_t kTouchOomDiskRead = 126869504;
constexpr Counters kTouchOomMovable{0, 32768};
constexpr std::array<uint64_t, 3> kTouchOomHost{24640, 24640, 234881024};

constexpr uint64_t kAdoptBytes = 127205376;
constexpr DurationNs kAdoptLatency = 102535200;
constexpr DurationNs kAdoptNested = 57504000;
constexpr CacheDigest kAdoptCache{31217, 4624454973, 74759965490705};
constexpr Counters kAdoptMovable{0, 32768};
constexpr std::array<uint64_t, 3> kAdoptHost{57233, 57233, 234426368};

constexpr uint64_t kRestoreFileBytes = 143941632;
constexpr DurationNs kRestoreNested = 2000;
constexpr CacheDigest kRestoreCache{35306, 5152046376, 92315137557339};
constexpr Counters kRestoreMovable{0, 32768};
constexpr Counters kRestoreNormal{0, 131072};
constexpr std::array<uint64_t, 3> kRestoreHost{130848, 130848, 670453760};

// Caches pages [first, first + n) of `file` (every `step`th one) in frames
// allocated straight from `zone`, as an earlier reader would have left them.
void CacheFilePages(GuestKernel& guest, Zone& zone, int32_t file, uint32_t first,
                    uint32_t n, uint32_t step = 1) {
  for (uint32_t idx = first; idx < first + n; idx += step) {
    const Pfn pfn = zone.Alloc(0, PageKind::kFile, file, idx);
    ASSERT_NE(pfn, kInvalidPfn);
    guest.page_cache().Insert(file, idx, pfn);
  }
}

// Leaves the movable zone's free lists fragmented: two anon processes
// interleave their faults, then the first exits.
void FragmentMovable(GuestKernel& guest) {
  const Pid a = guest.CreateProcess();
  const Pid b = guest.CreateProcess();
  for (int i = 0; i < 3; ++i) {
    guest.TouchAnon(a, MiB(3) + 3 * kPageSize, 0);
    guest.TouchAnon(b, MiB(2) + 5 * kPageSize, 0);
  }
  guest.Exit(a);
}

TEST_F(GuestTest, PrefixRetouchOfPartlyCachedFileOnlyRemaps) {
  guest_->PlugMemory(MiB(256), 0);
  const int32_t file = guest_->CreateFile("rootfs", MiB(64));
  const Pid agent = guest_->CreateProcess();
  ASSERT_FALSE(guest_->TouchFile(agent, file, MiB(16), 0).oom);
  ASSERT_EQ(guest_->page_cache().extents(file).size(), 1u);  // One contiguous run.
  const uint64_t allocated = guest_->allocated_bytes();
  const uint64_t read = guest_->page_cache().disk_read_bytes(file);
  const std::array<uint64_t, 3> host = HostBooks(*hv_, guest_->vm_id());

  // The rest of the file is uncached; a re-touch of the cached prefix
  // books one remap per page and nothing else.
  const Pid exec = guest_->CreateProcess();
  const TouchResult r = guest_->TouchFile(exec, file, MiB(12), Msec(1));
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.bytes, MiB(12));
  EXPECT_EQ(r.latency, cost_.fault_page * static_cast<DurationNs>(MiB(12) / kPageSize));
  EXPECT_EQ(r.nested, 0);
  EXPECT_EQ(guest_->allocated_bytes(), allocated);
  EXPECT_EQ(guest_->page_cache().disk_read_bytes(file), read);
  EXPECT_EQ(guest_->page_cache().cached_pages(file), MiB(16) / kPageSize);
  EXPECT_EQ(HostBooks(*hv_, guest_->vm_id()), host);
}

TEST_F(GuestTest, TouchFileOomMidFileMatchesPerPageFaults) {
  cost_.host_thp_bytes = MiB(2);
  ASSERT_TRUE(guest_->PlugMemory(kMemoryBlockBytes, 0).complete);
  Zone& movable = guest_->movable_zone();
  FragmentMovable(*guest_);
  const int32_t file = guest_->CreateFile("deps", MiB(160));
  // Cached before the OOM point: the file's head and every 7th page of a
  // stretch; cached after it: a later stretch.
  const Pid reader = guest_->CreateProcess();
  ASSERT_FALSE(guest_->TouchFile(reader, file, 100 * kPageSize, 0).oom);
  CacheFilePages(*guest_, movable, file, 1000, 1000, 7);
  CacheFilePages(*guest_, movable, file, 40000, 100);
  const Pfn late = guest_->page_cache().Lookup(file, 40000);
  const auto normal_before = ZoneCounters(guest_->normal_zone());

  // Confined to its partition: no ZONE_NORMAL spill, so the zone running
  // out mid-file is an OOM kill.
  const Pid pid = guest_->CreateProcess();
  guest_->process(pid).set_anon_zone(&movable);
  const TouchResult r = guest_->TouchFile(pid, file, MiB(160), Msec(3));
  EXPECT_TRUE(r.oom);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_EQ(r.latency, kTouchOomLatency);
  EXPECT_EQ(r.nested, kTouchOomNested);
  EXPECT_EQ(guest_->process(pid).state(), ProcessState::kOomKilled);
  EXPECT_EQ(Digest(guest_->page_cache(), file), kTouchOomCache);
  EXPECT_EQ(guest_->page_cache().Lookup(file, 40000), late);
  EXPECT_EQ(guest_->page_cache().disk_read_bytes(file), kTouchOomDiskRead);
  EXPECT_EQ(ZoneCounters(movable), kTouchOomMovable);
  EXPECT_EQ(ZoneCounters(guest_->normal_zone()), normal_before);
  EXPECT_EQ(HostBooks(*hv_, guest_->vm_id()), kTouchOomHost);
  EXPECT_TRUE(movable.CheckFreeLists());
}

TEST_F(GuestTest, PartialAdoptFileCacheMatchesPerPageFaults) {
  ASSERT_TRUE(guest_->PlugMemory(kMemoryBlockBytes, 0).complete);
  Zone& movable = guest_->movable_zone();
  FragmentMovable(*guest_);
  const int32_t file = guest_->CreateFile("image", MiB(160));
  const Pid reader = guest_->CreateProcess();
  ASSERT_FALSE(guest_->TouchFile(reader, file, 50 * kPageSize, 0).oom);
  CacheFilePages(*guest_, movable, file, 5000, 100);
  CacheFilePages(*guest_, movable, file, 36000, 11);
  const auto normal_before = ZoneCounters(guest_->normal_zone());

  // Adoption never spills out of the file zone: it stops where it fills.
  const TouchResult r = guest_->AdoptFileCache(file, Msec(3), /*populate_host=*/true);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.bytes, kAdoptBytes);
  EXPECT_EQ(r.latency, kAdoptLatency);
  EXPECT_EQ(r.nested, kAdoptNested);
  EXPECT_EQ(guest_->page_cache().adopted_bytes(file), kAdoptBytes);
  EXPECT_EQ(Digest(guest_->page_cache(), file), kAdoptCache);
  EXPECT_EQ(ZoneCounters(movable), kAdoptMovable);
  EXPECT_EQ(ZoneCounters(guest_->normal_zone()), normal_before);
  EXPECT_EQ(HostBooks(*hv_, guest_->vm_id()), kAdoptHost);
  EXPECT_TRUE(movable.CheckFreeLists());
}

TEST_F(GuestTest, PartialRestoreWorkingSetMatchesPerPageFaults) {
  // A hog fills most of ZONE_NORMAL before any memory is plugged.
  const Pid hog = guest_->CreateProcess();
  ASSERT_FALSE(guest_->TouchAnon(hog, MiB(400) + 7 * kPageSize, 0).oom);
  ASSERT_TRUE(guest_->PlugMemory(kMemoryBlockBytes, 0).complete);
  Zone& movable = guest_->movable_zone();
  FragmentMovable(*guest_);
  const int32_t file = guest_->CreateFile("snap", MiB(160));
  CacheFilePages(*guest_, movable, file, 0, 64);
  CacheFilePages(*guest_, movable, file, 39000, 100);

  // A vanilla process spills the misses into ZONE_NORMAL once the file
  // zone is full; the restore stops when that fills too.
  const Pid pid = guest_->CreateProcess();
  const RestoreOutcome out = guest_->RestoreWorkingSet(pid, file, 39500, 0, Msec(3));
  EXPECT_FALSE(out.oom);
  EXPECT_EQ(out.file_bytes, kRestoreFileBytes);
  EXPECT_EQ(out.anon_bytes, 0u);
  EXPECT_EQ(out.nested, kRestoreNested);
  EXPECT_EQ(guest_->page_cache().restored_bytes(file), kRestoreFileBytes);
  EXPECT_EQ(Digest(guest_->page_cache(), file), kRestoreCache);
  EXPECT_EQ(ZoneCounters(movable), kRestoreMovable);
  EXPECT_EQ(ZoneCounters(guest_->normal_zone()), kRestoreNormal);
  EXPECT_EQ(HostBooks(*hv_, guest_->vm_id()), kRestoreHost);
  EXPECT_TRUE(movable.CheckFreeLists());
  EXPECT_TRUE(guest_->normal_zone().CheckFreeLists());
}

// --- Block summaries ------------------------------------------------------------

TEST_F(GuestTest, BlockZoneReadsSummarizedBlockWithoutMaterializing) {
  ASSERT_TRUE(guest_->PlugMemory(MiB(256), 0).complete);
  const BlockIndex b = guest_->hotplug_first_block();
  const uint32_t before = guest_->memmap().materialized_granules();
  EXPECT_FALSE(BlockMaterialized(guest_->memmap(), b));
  EXPECT_EQ(guest_->BlockZone(b), &guest_->movable_zone());
  EXPECT_EQ(guest_->memmap().materialized_granules(), before);
}

TEST_F(GuestTest, ColdFileFaultOnFreshMemoryMaterializesNoGranule) {
  // A cold fault of a 200 MiB file on freshly plugged memory takes whole
  // max-order chunks: every granule it fills is one run record.
  ASSERT_TRUE(guest_->PlugMemory(MiB(256), 0).complete);
  const int32_t file = guest_->CreateFile("deps", MiB(200));
  const Pid pid = guest_->CreateProcess();
  ASSERT_FALSE(guest_->TouchFile(pid, file, MiB(200), 0).oom);
  const uint64_t pages = MiB(200) / kPageSize;
  ASSERT_EQ(guest_->page_cache().cached_pages(file), pages);
  const MemMap& m = guest_->memmap();
  EXPECT_EQ(m.materialized_peak_granules(), 0u);
  // Page i of the file is an order-0 file folio with slot i.
  for (uint64_t i = 0; i < pages; ++i) {
    const Page p = m.page(guest_->page_cache().Lookup(file, i));
    ASSERT_TRUE(p.state == PageState::kAllocated && p.kind == PageKind::kFile &&
                p.head && p.order == 0 && p.owner == file && p.owner_slot == i)
        << "file page " << i;
  }
  EXPECT_EQ(m.materialized_granules(), 0u);
}

TEST(GuestWarmTest, WarmAllHostBackingMatchesPerPageTwin) {
  // Two identical guests; in the twin every present block is materialized
  // by a mutable touch first, so its warm-up walks pages as it always did.
  CostModel cost = CostModel::Default();
  HostMemory host(GiB(32));
  HostMemory twin_host(GiB(32));
  Hypervisor hv(&host, &cost);
  Hypervisor twin_hv(&twin_host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, &hv);
  GuestKernel twin(cfg, &twin_hv);
  for (GuestKernel* g : {&guest, &twin}) {
    ASSERT_TRUE(g->PlugMemory(MiB(384), 0).complete);
  }
  for (BlockIndex b = 0; b < twin.memmap().block_count(); ++b) {
    if (twin.memmap().block_state(b) != BlockState::kAbsent) {
      twin.memmap().page(MemMap::BlockStart(b));
    }
  }
  const BlockIndex hole = guest.hotplug_first_block() + 3;
  ASSERT_EQ(guest.memmap().block_state(hole), BlockState::kAbsent);
  const BlockIndex plugged = guest.hotplug_first_block();
  ASSERT_NE(guest.memmap().block_state(plugged), BlockState::kAbsent);
  ASSERT_FALSE(BlockMaterialized(guest.memmap(), plugged));
  guest.WarmAllHostBacking(Sec(1));
  twin.WarmAllHostBacking(Sec(1));
  EXPECT_EQ(hv.stats(guest.vm_id()).populated_bytes,
            twin_hv.stats(twin.vm_id()).populated_bytes);
  EXPECT_EQ(host.populated(), twin_host.populated());
  EXPECT_EQ(host.populated(), MiB(512) + MiB(384));
  // Holes stay summarized: there is nothing behind them to warm.
  EXPECT_FALSE(BlockMaterialized(guest.memmap(), hole));
  EXPECT_FALSE(guest.memmap().host_populated(MemMap::BlockStart(hole)));
  // A present, untouched block is warmed in its bitmap and stays a summary.
  EXPECT_FALSE(BlockMaterialized(guest.memmap(), plugged));
  EXPECT_EQ(guest.memmap().CountBlockPages(plugged, PageState::kFree), kPagesPerBlock);
  const Pfn last = MemMap::BlockStart(plugged) + kPagesPerBlock - 1;
  EXPECT_TRUE(guest.memmap().host_populated(last));
}

}  // namespace
}  // namespace squeezy
