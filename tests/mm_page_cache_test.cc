// Unit tests for the guest page cache, and an oracle fuzz of its extents
// against the per-page cache (flat_page_cache_oracle.h) through the guest
// kernel's run-allocating fault path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/mm/memmap.h"
#include "src/mm/page_cache.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"
#include "tests/flat_page_cache_oracle.h"

namespace squeezy {
namespace {

TEST(PageCacheTest, RegisterFileSizesPages) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("rootfs", MiB(1));
  EXPECT_EQ(f, 0);
  EXPECT_EQ(cache.FilePages(f), MiB(1) / kPageSize);
  EXPECT_EQ(cache.file_size(f), MiB(1));
  EXPECT_EQ(cache.file_name(f), "rootfs");
  EXPECT_EQ(cache.file_count(), 1u);
}

TEST(PageCacheTest, RegisterOddSizeRoundsUp) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("x", kPageSize + 1);
  EXPECT_EQ(cache.FilePages(f), 2u);
}

TEST(PageCacheTest, InsertLookupRemove) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("lib.so", MiB(1));
  EXPECT_FALSE(cache.Cached(f, 0));
  EXPECT_EQ(cache.Lookup(f, 0), kInvalidPfn);

  cache.Insert(f, 0, 100);
  cache.Insert(f, 5, 105);
  EXPECT_TRUE(cache.Cached(f, 0));
  EXPECT_EQ(cache.Lookup(f, 5), 105u);
  EXPECT_EQ(cache.cached_pages(f), 2u);
  EXPECT_EQ(cache.total_cached_pages(), 2u);
  EXPECT_EQ(cache.total_cached_bytes(), 2 * kPageSize);

  EXPECT_EQ(cache.Remove(f, 0), 100u);
  EXPECT_FALSE(cache.Cached(f, 0));
  EXPECT_EQ(cache.cached_pages(f), 1u);
}

TEST(PageCacheTest, RelocateUpdatesMapping) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("bin", MiB(1));
  cache.Insert(f, 3, 200);
  cache.Relocate(f, 3, 999);
  EXPECT_EQ(cache.Lookup(f, 3), 999u);
  EXPECT_EQ(cache.cached_pages(f), 1u);  // Count unchanged.
}

TEST(PageCacheTest, MultipleFilesIndependent) {
  PageCache cache;
  const int32_t a = cache.RegisterFile("a", MiB(1));
  const int32_t b = cache.RegisterFile("b", MiB(2));
  cache.Insert(a, 0, 1);
  cache.Insert(b, 0, 2);
  EXPECT_EQ(cache.Lookup(a, 0), 1u);
  EXPECT_EQ(cache.Lookup(b, 0), 2u);
  EXPECT_EQ(cache.total_cached_pages(), 2u);
  cache.Remove(a, 0);
  EXPECT_TRUE(cache.Cached(b, 0));
}

TEST(PageCacheTest, RemoveSplitsAnExtentAndInsertRejoinsIt) {
  PageCache cache;
  const int32_t f = cache.RegisterFile("lib.so", MiB(1));
  cache.AddRuns(f, {{0, 10, 500}, {20, 5, 300}});
  ASSERT_EQ(cache.extents(f).size(), 2u);
  EXPECT_EQ(cache.cached_pages(f), 15u);

  EXPECT_EQ(cache.Remove(f, 4), 504u);  // Splits {0, 10, 500} around page 4.
  ASSERT_EQ(cache.extents(f).size(), 3u);
  EXPECT_EQ(cache.extents(f)[1].idx, 5u);
  EXPECT_EQ(cache.extents(f)[1].pfn, 505u);
  EXPECT_EQ(cache.Lookup(f, 9), 509u);
  EXPECT_FALSE(cache.Cached(f, 4));

  cache.Insert(f, 4, 504);  // Abuts both halves in index and pfn.
  ASSERT_EQ(cache.extents(f).size(), 2u);
  EXPECT_EQ(cache.extents(f)[0].count, 10u);

  cache.Relocate(f, 9, 900);  // The tail page moves: the extent shrinks.
  ASSERT_EQ(cache.extents(f).size(), 3u);
  EXPECT_EQ(cache.Lookup(f, 9), 900u);
  EXPECT_EQ(cache.cached_pages(f), 15u);

  // Runs that abut in index but not in pfn stay apart.
  cache.AddRuns(f, {{10, 2, 100}, {25, 3, 305}});
  ASSERT_EQ(cache.extents(f).size(), 4u);
  EXPECT_EQ(cache.extents(f)[2].idx, 10u);
  EXPECT_EQ(cache.extents(f)[3].count, 8u);  // {20, 5, 300} + {25, 3, 305}.
  EXPECT_TRUE(cache.PrefixCached(f, 9));
  EXPECT_FALSE(cache.PrefixCached(f, 10));
  EXPECT_EQ(cache.total_cached_pages(), 20u);

  const std::vector<PageCache::Extent> dropped = cache.RemoveAll(f);
  EXPECT_EQ(dropped.size(), 4u);
  EXPECT_TRUE(cache.extents(f).empty());
  EXPECT_EQ(cache.cached_pages(f), 0u);
  EXPECT_EQ(cache.total_cached_pages(), 0u);
}

// The production extent cache, driven through GuestKernel's fault and
// drop paths, against the per-page oracle.  A twin zone in a memmap of its
// own is rebuilt like the guest's movable zone and takes one Alloc(0) per
// missing page in index order (the per-page fault loop), so every fault's
// frames, the cache contents and the buddy state are checked after every
// op.  Ops: prefix faults over a sparse cache (TouchFile of a confined
// process, which OOMs when the zone runs dry; RestoreWorkingSet and
// AdoptFileCache, which stop there), single-page Insert, Remove and
// migration's Relocate, DropFileCache, and foreign folios allocated and
// freed in the zone to fragment its free lists.
class PageCacheExtentOracleFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PageCacheExtentOracleFuzzTest, MatchesPerPageCacheOpForOp) {
  Rng rng(GetParam());
  CostModel cost = CostModel::Default();
  HostMemory host(GiB(8));
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(256);
  cfg.hotplug_region = MiB(256);
  cfg.shuffle_allocator = false;
  GuestKernel guest(cfg, &hv);
  ASSERT_TRUE(guest.PlugMemory(MiB(256), 0).complete);
  Zone& zone = guest.movable_zone();
  PageCache& cache = guest.page_cache();

  MemMap twin_map(cfg.base_memory + cfg.hotplug_region);
  Zone twin(zone.id(), ZoneType::kMovable, "twin", &twin_map);
  const BlockIndex plugged = guest.hotplug_first_block();
  for (BlockIndex b = plugged; b < plugged + 2; ++b) {
    twin_map.InitBlock(b);
    twin.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }

  oracle::FlatPageCache flat;
  std::vector<int32_t> files;
  for (int i = 0; i < 3; ++i) {
    const uint64_t bytes = static_cast<uint64_t>(rng.UniformInt(1, 8192)) * kPageSize -
                           static_cast<uint64_t>(rng.UniformInt(0, 1));
    files.push_back(guest.CreateFile("f" + std::to_string(i), bytes));
    ASSERT_EQ(flat.RegisterFile(bytes), files.back());
  }
  struct Folio {
    Pfn head;
    uint8_t order;
  };
  std::vector<Folio> foreign;

  auto alloc_both = [&](uint8_t order, PageKind kind, int32_t owner, uint32_t slot) {
    const Pfn got = zone.Alloc(order, kind, owner, slot);
    EXPECT_EQ(got, twin.Alloc(order, kind, owner, slot));
    return got;
  };
  auto free_both = [&](Pfn pfn) {
    zone.Free(pfn);
    twin.Free(pfn);
  };
  // A page of `file` whose cached state is `cached`, or -1.
  auto pick = [&](int32_t file, bool cached) -> int64_t {
    const uint64_t pages = flat.FilePages(file);
    const uint64_t start =
        static_cast<uint64_t>(rng.UniformInt(0, static_cast<int64_t>(pages) - 1));
    for (uint64_t k = 0; k < pages; ++k) {
      const uint64_t idx = (start + k) % pages;
      if (flat.Cached(file, idx) == cached) {
        return static_cast<int64_t>(idx);
      }
    }
    return -1;
  };
  // The per-page fault of [0, pages): returns whether every miss got a frame.
  auto fault_flat = [&](int32_t file, uint64_t pages) {
    for (uint64_t idx = 0; idx < pages; ++idx) {
      if (flat.Cached(file, idx)) {
        continue;
      }
      const Pfn pfn = twin.Alloc(0, PageKind::kFile, file, static_cast<uint32_t>(idx));
      if (pfn == kInvalidPfn) {
        return false;
      }
      flat.Insert(file, idx, pfn);
    }
    return true;
  };

  for (int step = 0; step < 300; ++step) {
    const int32_t f = files[static_cast<size_t>(rng.UniformInt(0, 2))];
    const uint64_t file_pages = flat.FilePages(f);
    auto random_prefix = [&] {
      return static_cast<uint64_t>(rng.UniformInt(1, static_cast<int64_t>(file_pages)));
    };
    const TimeNs now = Msec(step);
    const int64_t op = rng.UniformInt(0, 10);
    if (op <= 2) {  // Demand-fault a prefix, whole file or not.
      const uint64_t pages = rng.Chance(0.3) ? file_pages : random_prefix();
      const Pid pid = guest.CreateProcess();
      guest.process(pid).set_anon_zone(&zone);  // Confined: no ZONE_NORMAL spill.
      const TouchResult r = guest.TouchFile(pid, f, PagesToBytes(pages), now);
      const bool complete = fault_flat(f, pages);
      ASSERT_EQ(r.oom, !complete) << "step " << step;
      ASSERT_EQ(r.bytes, complete ? PagesToBytes(pages) : 0) << "step " << step;
    } else if (op == 3) {  // Restore a recorded prefix, or adopt the whole file.
      const uint64_t before = flat.cached_pages(f);
      uint64_t bytes = 0;
      if (rng.Chance(0.5)) {
        const uint64_t pages = random_prefix();
        const Pid pid = guest.CreateProcess();
        guest.process(pid).set_anon_zone(&zone);
        bytes = guest.RestoreWorkingSet(pid, f, pages, 0, now).file_bytes;
        fault_flat(f, pages);
      } else {
        bytes = guest.AdoptFileCache(f, now, rng.Chance(0.5)).bytes;
        fault_flat(f, file_pages);
      }
      ASSERT_EQ(bytes, PagesToBytes(flat.cached_pages(f) - before)) << "step " << step;
    } else if (op == 4) {  // One page read in by someone else.
      const int64_t idx = pick(f, false);
      if (idx >= 0) {
        const Pfn pfn = alloc_both(0, PageKind::kFile, f, static_cast<uint32_t>(idx));
        if (pfn != kInvalidPfn) {
          cache.Insert(f, static_cast<uint64_t>(idx), pfn);
          flat.Insert(f, static_cast<uint64_t>(idx), pfn);
        }
      }
    } else if (op == 5) {  // One page evicted.
      const int64_t idx = pick(f, true);
      if (idx >= 0) {
        const Pfn pfn = cache.Remove(f, static_cast<uint64_t>(idx));
        ASSERT_EQ(pfn, flat.Remove(f, static_cast<uint64_t>(idx))) << "step " << step;
        free_both(pfn);
      }
    } else if (op == 6) {  // One page migrated.
      const int64_t idx = pick(f, true);
      if (idx >= 0) {
        const uint32_t slot = static_cast<uint32_t>(idx);
        const Pfn target = alloc_both(0, PageKind::kFile, f, slot);
        if (target != kInvalidPfn) {
          const Pfn old = flat.Lookup(f, slot);
          guest.RelocateFolio(PageKind::kFile, f, slot, target);
          flat.Relocate(f, slot, target);
          free_both(old);
        }
      }
    } else if (op == 7) {  // Drop the file, page by page in index order.
      uint64_t want = 0;
      for (uint64_t idx = 0; idx < file_pages; ++idx) {
        if (flat.Cached(f, idx)) {
          twin.Free(flat.Remove(f, idx));
          want += kPageSize;
        }
      }
      ASSERT_EQ(guest.DropFileCache(f, now), want) << "step " << step;
    } else if (op == 8) {  // A foreign folio taken out of the zone.
      const uint8_t order = static_cast<uint8_t>(rng.Chance(0.6) ? rng.UniformInt(0, 3)
                                                                 : rng.UniformInt(4, 10));
      const Pfn head = alloc_both(order, PageKind::kAnon, 999, 0);
      if (head != kInvalidPfn) {
        foreign.push_back({head, order});
      }
    } else if (op == 9) {  // Foreign folios squeeze the zone nearly dry.
      const uint64_t leave = static_cast<uint64_t>(rng.UniformInt(0, 3000));
      while (zone.free_pages() > leave) {
        const uint64_t excess = zone.free_pages() - leave;
        uint8_t order = static_cast<uint8_t>(std::min<uint64_t>(
            rng.UniformInt(0, kMaxPageOrder), 63 - __builtin_clzll(excess)));
        Pfn head = alloc_both(order, PageKind::kAnon, 999, 0);
        while (head == kInvalidPfn && order > 0) {  // Fragmented: a smaller folio.
          head = alloc_both(--order, PageKind::kAnon, 999, 0);
        }
        ASSERT_NE(head, kInvalidPfn) << "step " << step;
        foreign.push_back({head, order});
      }
    } else {  // Foreign folios given back: one, or about half of them.
      const bool half = rng.Chance(0.3);
      for (size_t n = half ? foreign.size() / 2 : 1; n > 0 && !foreign.empty(); --n) {
        const int64_t last = static_cast<int64_t>(foreign.size()) - 1;
        const size_t i = static_cast<size_t>(rng.UniformInt(0, last));
        free_both(foreign[i].head);
        foreign[i] = foreign.back();
        foreign.pop_back();
      }
    }

    ASSERT_EQ(zone.free_pages(), twin.free_pages()) << "step " << step;
    for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
      ASSERT_EQ(zone.free_chunks(order), twin.free_chunks(order)) << "step " << step;
    }
    ASSERT_EQ(cache.total_cached_pages(), flat.total_cached_pages()) << "step " << step;
    for (const int32_t file : files) {
      ASSERT_EQ(cache.cached_pages(file), flat.cached_pages(file)) << "step " << step;
      for (uint64_t idx = 0; idx < flat.FilePages(file); ++idx) {
        ASSERT_EQ(cache.Cached(file, idx), flat.Cached(file, idx)) << "step " << step;
        ASSERT_EQ(cache.Lookup(file, idx), flat.Lookup(file, idx))
            << "file " << file << " page " << idx << " step " << step;
      }
      // Sorted, disjoint, non-empty and maximal: no two neighbours abut in
      // both index and pfn.
      uint64_t pages = 0;
      const std::vector<PageCache::Extent>& ext = cache.extents(file);
      for (size_t i = 0; i < ext.size(); ++i) {
        ASSERT_GT(ext[i].count, 0u) << "step " << step;
        ASSERT_LE(ext[i].end(), flat.FilePages(file)) << "step " << step;
        if (i > 0) {
          ASSERT_LE(ext[i - 1].end(), ext[i].idx) << "step " << step;
          ASSERT_FALSE(ext[i - 1].end() == ext[i].idx &&
                       ext[i - 1].pfn + ext[i - 1].count == ext[i].pfn)
              << "unmerged extents at page " << ext[i].idx << " step " << step;
        }
        pages += ext[i].count;
      }
      ASSERT_EQ(pages, flat.cached_pages(file)) << "step " << step;
    }
  }
  EXPECT_TRUE(zone.CheckFreeLists());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheExtentOracleFuzzTest,
                         testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace squeezy
