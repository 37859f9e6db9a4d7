// Oracle fuzz for the granule-map MemMap and the 12-byte Page: the
// production MemMap + Zone and the per-page oracle (flat_mm_oracle.h) run
// the same random sequence of plug / online (shuffled and unshuffled
// zones) / Alloc at orders 0, 9 and 10 / AllocPages runs (against one
// oracle Alloc(0) per page) / Free / isolate / UndoIsolation /
// FreeIntoIsolation / retire / hot-remove / ShuffleFreeLists operations,
// directed THP cases (an order-0 folio split beside an order-9 one and
// both freed back, listed order-9 heads shuffled, an order-10 folio freed
// into isolation, a partial isolate that cuts granules),
// host backing set over ranges that cross block boundaries and dropped
// frame by frame, and the whole offline of a block emptied while
// materialized (which must drop all its frames).  Every returned pfn
// and count, every zone counter and every frame (state, ownership, host
// backing and free-list links, read without materializing) must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"
#include "tests/flat_mm_oracle.h"
#include "tests/memmap_test_util.h"

namespace squeezy {
namespace {

constexpr uint32_t kBlocks = 6;
constexpr int kSteps = 300;

enum class Model { kAbsent, kPresent, kOnline, kIsolating, kOffline };

struct Folio {
  Pfn head;
  uint8_t order;
  size_t zone;
};

bool SameLink(const FreeLink& a, const FreeLink& b) {
  return a.next == b.next && a.prev == b.prev;
}

// Compares every frame of block b; the production side through const reads.
// A listed sub-max-order head keeps its links in its owner words, so there
// the links are compared (and the oracle's owner words must be empty);
// every other frame compares its owner words (and the oracle's link must
// be empty unless the max-order side table holds it).
void ExpectSameBlock(const MemMap& m, const oracle::FlatMemMap& o, BlockIndex b,
                     int step) {
  const Pfn start = MemMap::BlockStart(b);
  for (Pfn pfn = start; pfn < start + kPagesPerBlock; ++pfn) {
    const Page got = m.page(pfn);
    const oracle::FlatPage& want = o.page(pfn);
    const bool listed = want.state == PageState::kFree && want.head;
    const bool max_head = listed && want.order == kMaxPageOrder;
    ASSERT_TRUE(got.state == want.state && got.kind == want.kind &&
                got.order == want.order && got.head == want.head &&
                got.zone_id == want.zone_id &&
                m.host_populated(pfn) == want.host_populated)
        << "frame " << pfn << " differs at step " << step;
    if (listed && !max_head) {
      ASSERT_TRUE(SameLink(got.link(), want.link))
          << "page link of " << pfn << " differs at step " << step;
      ASSERT_TRUE(want.owner == kNoOwner && want.owner_slot == 0)
          << "listed head " << pfn << " has an owner at step " << step;
    } else {
      ASSERT_TRUE(got.owner == want.owner && got.owner_slot == want.owner_slot)
          << "owner of " << pfn << " differs at step " << step;
      ASSERT_TRUE(max_head || SameLink(want.link, FreeLink{}))
          << "unlisted frame " << pfn << " has a link at step " << step;
    }
    // Max-order heads keep their links in the side table.
    if ((pfn & ((1u << kMaxPageOrder) - 1)) == 0) {
      ASSERT_TRUE(SameLink(m.max_link(pfn), max_head ? want.link : FreeLink{}))
          << "max-order link of " << pfn << " differs at step " << step;
    }
  }
  ASSERT_EQ(m.BlockOccupied(b), o.BlockOccupied(b)) << "block " << b << " step " << step;
}

class SummaryOracleFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SummaryOracleFuzzTest, MatchesPerPageOracleOpForOp) {
  const uint64_t seed = GetParam();
  MemMap m(kBlocks * kMemoryBlockBytes);
  oracle::FlatMemMap o(kBlocks * kMemoryBlockBytes);
  // Zone 0 is unshuffled, zone 1 shuffled; each side owns an identically
  // seeded shuffle RNG, so equal draws keep them in step.
  Rng shuffle(seed + 100);
  Rng oracle_shuffle(seed + 100);
  Zone z0(0, ZoneType::kMovable, "z0", &m);
  Zone z1(1, ZoneType::kMovable, "z1", &m, &shuffle);
  oracle::FlatZone o0(0, &o, nullptr);
  oracle::FlatZone o1(1, &o, &oracle_shuffle);
  Zone* zones[] = {&z0, &z1};
  oracle::FlatZone* ozones[] = {&o0, &o1};

  std::vector<Model> model(kBlocks, Model::kAbsent);
  std::vector<size_t> block_zone(kBlocks, 0);
  std::vector<Folio> live;
  Rng rng(seed * 7919 + 3);

  auto pick_block = [&](Model want) -> int64_t {
    std::vector<BlockIndex> candidates;
    for (BlockIndex b = 0; b < kBlocks; ++b) {
      if (model[b] == want) {
        candidates.push_back(b);
      }
    }
    if (candidates.empty()) {
      return -1;
    }
    return candidates[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
  };
  auto pick_folio = [&](Model want) -> int64_t {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < live.size(); ++i) {
      if (model[MemMap::BlockOf(live[i].head)] == want) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      return -1;
    }
    return static_cast<int64_t>(candidates[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))]);
  };
  auto drop_folio = [&](size_t i) {
    live[i] = live.back();
    live.pop_back();
  };

  for (int step = 0; step < kSteps; ++step) {
    switch (rng.UniformInt(0, 17)) {
      case 0: {  // Plug.
        const int64_t b = pick_block(Model::kAbsent);
        if (b >= 0) {
          m.InitBlock(static_cast<BlockIndex>(b));
          o.InitBlock(static_cast<uint32_t>(b));
          model[static_cast<size_t>(b)] = Model::kPresent;
        }
        break;
      }
      case 1: {  // Online one block, or two adjacent ones in one range.
        const int64_t b = pick_block(Model::kPresent);
        if (b < 0) {
          break;
        }
        const size_t bi = static_cast<size_t>(b);
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const bool pair =
            bi + 1 < kBlocks && model[bi + 1] == Model::kPresent && rng.Chance(0.3);
        const uint64_t npages = (pair ? 2u : 1u) * kPagesPerBlock;
        zones[z]->AddFreeRange(MemMap::BlockStart(static_cast<BlockIndex>(b)), npages);
        ozones[z]->AddFreeRange(MemMap::BlockStart(static_cast<BlockIndex>(b)), npages);
        for (size_t k = bi; k < bi + (pair ? 2 : 1); ++k) {
          model[k] = Model::kOnline;
          block_zone[k] = z;
        }
        break;
      }
      case 2:
      case 3: {  // Alloc, host-backing the folio now and then.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const uint8_t orders[] = {0, 0, kThpOrder, kMaxPageOrder};
        const uint8_t order = orders[rng.UniformInt(0, 3)];
        const uint32_t slot = static_cast<uint32_t>(step);
        const Pfn got = zones[z]->Alloc(order, PageKind::kAnon, 7, slot);
        const Pfn want = ozones[z]->Alloc(order, PageKind::kAnon, 7, slot);
        ASSERT_EQ(got, want) << "alloc order " << int{order} << " step " << step;
        if (got != kInvalidPfn) {
          live.push_back({got, order, z});
          if (rng.Chance(0.5)) {
            m.PopulateRange(got, 1u << order);
            for (Pfn pfn = got; pfn < got + (1u << order); ++pfn) {
              o.page(pfn).host_populated = true;
            }
          }
        }
        break;
      }
      case 4: {  // Free a folio of an online block.
        const int64_t i = pick_folio(Model::kOnline);
        if (i >= 0) {
          const Folio f = live[static_cast<size_t>(i)];
          zones[f.zone]->Free(f.head);
          ozones[f.zone]->Free(f.head);
          drop_folio(static_cast<size_t>(i));
        }
        break;
      }
      case 5: {  // Isolate an online block.
        const int64_t b = pick_block(Model::kOnline);
        if (b >= 0) {
          const size_t z = block_zone[static_cast<size_t>(b)];
          const Pfn start = MemMap::BlockStart(static_cast<BlockIndex>(b));
          ASSERT_EQ(zones[z]->IsolateFreeRange(start, kPagesPerBlock),
                    ozones[z]->IsolateFreeRange(start, kPagesPerBlock));
          model[static_cast<size_t>(b)] = Model::kIsolating;
        }
        break;
      }
      case 6: {  // Abort an offline, or migrate a folio out of the block.
        if (rng.Chance(0.5)) {
          const int64_t b = pick_block(Model::kIsolating);
          if (b >= 0) {
            const size_t z = block_zone[static_cast<size_t>(b)];
            const Pfn start = MemMap::BlockStart(static_cast<BlockIndex>(b));
            zones[z]->UndoIsolation(start, kPagesPerBlock);
            ozones[z]->UndoIsolation(start, kPagesPerBlock);
            model[static_cast<size_t>(b)] = Model::kOnline;
          }
        } else {
          const int64_t i = pick_folio(Model::kIsolating);
          if (i >= 0) {
            const Folio f = live[static_cast<size_t>(i)];
            zones[f.zone]->FreeIntoIsolation(f.head);
            ozones[f.zone]->FreeIntoIsolation(f.head);
            drop_folio(static_cast<size_t>(i));
          }
        }
        break;
      }
      case 7: {  // Retire a fully isolated block.
        const int64_t b = pick_block(Model::kIsolating);
        if (b >= 0 && m.BlockOccupied(static_cast<BlockIndex>(b)) == 0) {
          const size_t z = block_zone[static_cast<size_t>(b)];
          const Pfn start = MemMap::BlockStart(static_cast<BlockIndex>(b));
          zones[z]->RetireRange(start, kPagesPerBlock);
          ozones[z]->RetireRange(start, kPagesPerBlock);
          model[static_cast<size_t>(b)] = Model::kOffline;
        }
        break;
      }
      case 8: {  // Hot-remove an offline block.
        const int64_t b = pick_block(Model::kOffline);
        if (b >= 0) {
          const BlockIndex bi = static_cast<BlockIndex>(b);
          const uint64_t cleared = m.ClearHostPopulated(bi);
          m.set_block_state(bi, BlockState::kOffline);
          m.TeardownBlock(bi);
          ASSERT_EQ(cleared, o.ClearAndTeardownBlock(bi));
          EXPECT_FALSE(BlockMaterialized(m, bi));
          model[static_cast<size_t>(b)] = Model::kAbsent;
        }
        break;
      }
      case 9: {  // Re-randomize a zone's free lists.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        Rng a(seed * 31 + static_cast<uint64_t>(step));
        Rng b(seed * 31 + static_cast<uint64_t>(step));
        zones[z]->ShuffleFreeLists(a);
        ozones[z]->ShuffleFreeLists(b);
        break;
      }
      case 10: {  // A mutable touch materializes whatever block it lands in.
        const Pfn pfn =
            static_cast<Pfn>(rng.UniformInt(0, static_cast<int64_t>(m.span_pages()) - 1));
        const Page before = std::as_const(m).page(pfn);
        const Page& after = m.page(pfn);
        ASSERT_TRUE(before.state == after.state && before.zone_id == after.zone_id &&
                    before.head == after.head && before.order == after.order);
        break;
      }
      case 11: {  // A run of order-0 pages against one oracle Alloc(0) per page.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const int64_t shape = rng.UniformInt(0, 7);
        uint64_t n = 0;
        if (shape < 4) {  // Inside or across split chunks.
          n = static_cast<uint64_t>(rng.UniformInt(1, 700));
        } else if (shape < 7) {  // Whole max-order chunks, maybe a split one after.
          const int64_t chunks = rng.UniformInt(1, 3);
          const bool split_after = rng.Chance(0.5);
          const int64_t extra = split_after ? rng.UniformInt(1, 5) : 0;
          n = (uint64_t{1} << kMaxPageOrder) * static_cast<uint64_t>(chunks) +
              static_cast<uint64_t>(extra);
        } else {  // Past the zone's last free page.
          n = zones[z]->free_pages() + static_cast<uint64_t>(rng.UniformInt(1, 3));
        }
        std::vector<uint32_t> slots(n);
        for (uint64_t i = 0; i < n; ++i) {
          slots[i] = static_cast<uint32_t>(step) * 1000003u + static_cast<uint32_t>(i);
        }
        std::vector<PfnRun> runs;
        const uint64_t allocated =
            zones[z]->AllocPages(n, PageKind::kFile, 9, slots[0], &runs);
        std::vector<Pfn> got(n, kInvalidPfn);
        size_t next = 0;
        for (const PfnRun& run : runs) {
          for (uint32_t i = 0; i < run.count; ++i) {
            got[next++] = run.first + i;
          }
        }
        uint64_t want_allocated = 0;
        for (uint64_t i = 0; i < n; ++i) {
          const Pfn want = ozones[z]->Alloc(0, PageKind::kFile, 9, slots[i]);
          if (want == kInvalidPfn) {
            break;
          }
          ASSERT_EQ(got[i], want) << "page " << i << " of " << n << " step " << step;
          live.push_back({want, 0, z});
          ++want_allocated;
        }
        ASSERT_EQ(allocated, want_allocated) << "run of " << n << " step " << step;
        if (rng.Chance(0.5)) {  // Give the run back page by page, coalescing as it goes.
          for (uint64_t i = 0; i < allocated; ++i) {
            zones[z]->Free(live.back().head);
            ozones[z]->Free(live.back().head);
            live.pop_back();
          }
        }
        break;
      }
      case 12: {  // Back a range that may cross a block boundary, as fault runs can.
        const BlockIndex b = static_cast<BlockIndex>(rng.UniformInt(1, kBlocks - 1));
        const Pfn first =
            MemMap::BlockStart(b) - static_cast<Pfn>(rng.UniformInt(1, 3000));
        const uint32_t n = static_cast<uint32_t>(rng.UniformInt(1, 6000));
        uint64_t want = 0;
        for (Pfn pfn = first; pfn < first + n; ++pfn) {
          want += o.page(pfn).host_populated ? 0 : 1;
          o.page(pfn).host_populated = true;
        }
        ASSERT_EQ(m.PopulateRange(first, n), want) << "step " << step;
        break;
      }
      case 13: {  // Drop one frame's backing, as a balloon report or cache drop does.
        Pfn pfn =
            static_cast<Pfn>(rng.UniformInt(0, static_cast<int64_t>(m.span_pages()) - 1));
        if (!live.empty() && rng.Chance(0.7)) {  // Mostly a frame of a live folio.
          const Folio& f = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          pfn = f.head + static_cast<Pfn>(rng.UniformInt(0, (int64_t{1} << f.order) - 1));
        }
        const bool want = o.page(pfn).host_populated;
        o.page(pfn).host_populated = false;
        ASSERT_EQ(m.Unpopulate(pfn), want) << "step " << step;
        break;
      }
      case 14: {  // Empty a materialized online block, then offline and remove it.
        const int64_t b = pick_block(Model::kOnline);
        if (b < 0) {
          break;
        }
        const BlockIndex bi = static_cast<BlockIndex>(b);
        const size_t z = block_zone[bi];
        for (size_t i = live.size(); i-- > 0;) {
          if (MemMap::BlockOf(live[i].head) == bi) {
            zones[z]->Free(live[i].head);
            ozones[z]->Free(live[i].head);
            drop_folio(i);
          }
        }
        const Pfn start = MemMap::BlockStart(bi);
        m.page(start);  // Materialize it if nothing had.
        ASSERT_EQ(zones[z]->IsolateFreeRange(start, kPagesPerBlock),
                  ozones[z]->IsolateFreeRange(start, kPagesPerBlock));
        ASSERT_EQ(m.CountBlockPages(bi, PageState::kIsolated), kPagesPerBlock)
            << "step " << step;
        ASSERT_FALSE(BlockMaterialized(m, bi)) << "step " << step;
        zones[z]->RetireRange(start, kPagesPerBlock);
        ozones[z]->RetireRange(start, kPagesPerBlock);
        ASSERT_EQ(m.CountBlockPages(bi, PageState::kOffline), kPagesPerBlock)
            << "step " << step;
        const uint64_t cleared = m.ClearHostPopulated(bi);
        m.set_block_state(bi, BlockState::kOffline);
        m.TeardownBlock(bi);
        ASSERT_EQ(cleared, o.ClearAndTeardownBlock(bi)) << "step " << step;
        model[bi] = Model::kAbsent;
        break;
      }
      case 15: {  // An order-0 folio beside a THP folio, maybe both freed back.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const uint32_t slot = static_cast<uint32_t>(step);
        const Pfn thp = zones[z]->Alloc(kThpOrder, PageKind::kAnon, 5, slot);
        ASSERT_EQ(thp, ozones[z]->Alloc(kThpOrder, PageKind::kAnon, 5, slot))
            << "step " << step;
        if (thp == kInvalidPfn) {
          break;
        }
        live.push_back({thp, kThpOrder, z});
        if (rng.Chance(0.5)) {  // The THP's free buddy may be a listed order-9 head.
          Rng a(seed * 37 + static_cast<uint64_t>(step));
          Rng b(seed * 37 + static_cast<uint64_t>(step));
          zones[z]->ShuffleFreeLists(a);
          ozones[z]->ShuffleFreeLists(b);
        }
        const Pfn small = zones[z]->Alloc(0, PageKind::kAnon, 5, slot + 1);
        ASSERT_EQ(small, ozones[z]->Alloc(0, PageKind::kAnon, 5, slot + 1))
            << "step " << step;
        if (small != kInvalidPfn) {
          live.push_back({small, 0, z});
        }
        if (rng.Chance(0.5)) {
          for (int k = small != kInvalidPfn ? 2 : 1; k > 0; --k) {
            zones[z]->Free(live.back().head);
            ozones[z]->Free(live.back().head);
            live.pop_back();
          }
          // What coalesced back to THP order or above is uniform again.
          const Pfn chunk = thp & ~((1u << kMaxPageOrder) - 1);
          for (Pfn g = chunk; g < chunk + (1u << kMaxPageOrder); g += kGranulePages) {
            if (o.page(g).state == PageState::kFree && o.page(g).order >= kThpOrder) {
              ASSERT_FALSE(m.Materialized(g)) << "granule " << g << " step " << step;
            }
          }
        }
        break;
      }
      case 16: {  // A max-order folio straight into isolation: two granules at once.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const uint32_t slot = static_cast<uint32_t>(step);
        const Pfn got = zones[z]->Alloc(kMaxPageOrder, PageKind::kAnon, 6, slot);
        ASSERT_EQ(got, ozones[z]->Alloc(kMaxPageOrder, PageKind::kAnon, 6, slot))
            << "step " << step;
        if (got == kInvalidPfn) {
          break;
        }
        const BlockIndex bi = MemMap::BlockOf(got);
        ASSERT_EQ(model[bi], Model::kOnline) << "step " << step;
        const Pfn start = MemMap::BlockStart(bi);
        ASSERT_EQ(zones[z]->IsolateFreeRange(start, kPagesPerBlock),
                  ozones[z]->IsolateFreeRange(start, kPagesPerBlock));
        model[bi] = Model::kIsolating;
        zones[z]->FreeIntoIsolation(got);
        ozones[z]->FreeIntoIsolation(got);
        ASSERT_FALSE(m.Materialized(got) || m.Materialized(got + kGranulePages))
            << "step " << step;
        break;
      }
      case 17: {  // Isolate part of a block from inside a THP folio; undo or finish.
        const size_t z = static_cast<size_t>(rng.UniformInt(0, 1));
        const uint32_t slot = static_cast<uint32_t>(step);
        const Pfn thp = zones[z]->Alloc(kThpOrder, PageKind::kAnon, 8, slot);
        ASSERT_EQ(thp, ozones[z]->Alloc(kThpOrder, PageKind::kAnon, 8, slot))
            << "step " << step;
        if (thp == kInvalidPfn) {
          break;
        }
        live.push_back({thp, kThpOrder, z});
        const BlockIndex bi = MemMap::BlockOf(thp);
        ASSERT_EQ(model[bi], Model::kOnline) << "step " << step;
        const Pfn start = MemMap::BlockStart(bi);
        const Pfn end = start + kPagesPerBlock;
        // One end cuts the folio's uniform granule; the other lands
        // anywhere but inside a free chunk (a cut there moves to its head).
        auto boundary = [&](Pfn pfn) {
          if (o.page(pfn).state != PageState::kFree) {
            return pfn;
          }
          for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
            const Pfn head = pfn & ~((1u << order) - 1);
            const oracle::FlatPage& f = o.page(head);
            if (f.state == PageState::kFree && f.head && head + (1u << f.order) > pfn) {
              return head;
            }
          }
          return pfn;
        };
        Pfn lo = thp + static_cast<Pfn>(rng.UniformInt(1, kGranulePages - 1));
        Pfn hi =
            boundary(start + static_cast<Pfn>(rng.UniformInt(1, kPagesPerBlock - 1)));
        if (lo > hi) {
          std::swap(lo, hi);
        }
        ASSERT_EQ(zones[z]->IsolateFreeRange(lo, hi - lo),
                  ozones[z]->IsolateFreeRange(lo, hi - lo))
            << "step " << step;
        if (rng.Chance(0.5)) {
          zones[z]->UndoIsolation(lo, hi - lo);
          ozones[z]->UndoIsolation(lo, hi - lo);
        } else {
          ASSERT_EQ(zones[z]->IsolateFreeRange(start, lo - start),
                    ozones[z]->IsolateFreeRange(start, lo - start));
          ASSERT_EQ(zones[z]->IsolateFreeRange(hi, end - hi),
                    ozones[z]->IsolateFreeRange(hi, end - hi));
          model[bi] = Model::kIsolating;
        }
        break;
      }
    }

    for (size_t z = 0; z < 2; ++z) {
      ASSERT_TRUE(zones[z]->CheckFreeLists()) << "zone " << z << " step " << step;
      ASSERT_EQ(zones[z]->free_pages(), ozones[z]->free_pages()) << "step " << step;
      ASSERT_EQ(zones[z]->present_pages(), ozones[z]->present_pages()) << "step " << step;
      ASSERT_EQ(zones[z]->managed_pages(), ozones[z]->managed_pages()) << "step " << step;
      for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
        ASSERT_EQ(zones[z]->free_chunks(order), ozones[z]->free_chunks(order))
            << "zone " << z << " order " << int{order} << " step " << step;
      }
    }
    if (step % 10 == 0 || step == kSteps - 1) {
      const uint32_t materialized = m.materialized_granules();
      for (BlockIndex b = 0; b < kBlocks; ++b) {
        ExpectSameBlock(m, o, b, step);
        if (HasFatalFailure()) {
          return;
        }
      }
      ASSERT_EQ(m.materialized_granules(), materialized) << "a const read materialized";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryOracleFuzzTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace squeezy
