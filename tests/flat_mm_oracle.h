// Test-only oracle: the per-page guest memory map and buddy zone as they
// were before block summaries and the 12-byte Page — one 24-byte FlatPage
// per 4 KiB frame with every field in its own word, every free-list link
// (max order included) threaded through it, every range operation a walk
// over frames, and one page per Alloc call.  mm_summary_oracle_test.cc
// fuzzes the production MemMap + Zone against it op for op; nothing
// outside tests/ uses it.
#ifndef SQUEEZY_TESTS_FLAT_MM_ORACLE_H_
#define SQUEEZY_TESTS_FLAT_MM_ORACLE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {
namespace oracle {

// The frame with nothing aliased (production Page keeps sub-max-order
// links in its owner words instead, page.h).
struct FlatPage {
  PageState state = PageState::kHole;
  PageKind kind = PageKind::kNone;
  uint8_t order = 0;
  bool head = false;
  bool host_populated = false;
  int16_t zone_id = -1;
  int32_t owner = kNoOwner;
  uint32_t owner_slot = 0;
  FreeLink link;
};

class FlatMemMap {
 public:
  explicit FlatMemMap(uint64_t span_bytes)
      : pages_(BytesToBlocks(span_bytes) * kPagesPerBlock),
        allocated_per_block_(BytesToBlocks(span_bytes), 0) {}

  uint64_t span_pages() const { return pages_.size(); }
  FlatPage& page(Pfn pfn) { return pages_[pfn]; }
  const FlatPage& page(Pfn pfn) const { return pages_[pfn]; }

  void InitBlock(uint32_t b) {
    for (Pfn pfn = b * kPagesPerBlock; pfn < (b + 1) * kPagesPerBlock; ++pfn) {
      assert(pages_[pfn].state == PageState::kHole);
      pages_[pfn] = FlatPage{};
      pages_[pfn].state = PageState::kOffline;
    }
  }

  // Returns how many host_populated flags were cleared, then tears down.
  uint64_t ClearAndTeardownBlock(uint32_t b) {
    uint64_t cleared = 0;
    for (Pfn pfn = b * kPagesPerBlock; pfn < (b + 1) * kPagesPerBlock; ++pfn) {
      assert(pages_[pfn].state == PageState::kOffline);
      cleared += pages_[pfn].host_populated ? 1 : 0;
      pages_[pfn] = FlatPage{};
    }
    return cleared;
  }

  uint32_t BlockOccupied(uint32_t b) const { return allocated_per_block_[b]; }
  void AdjustBlockAllocated(Pfn head, int64_t delta_pages) {
    uint32_t& n = allocated_per_block_[head / kPagesPerBlock];
    n = static_cast<uint32_t>(n + delta_pages);
  }

 private:
  std::vector<FlatPage> pages_;
  std::vector<uint32_t> allocated_per_block_;
};

class FlatZone {
 public:
  FlatZone(int16_t id, FlatMemMap* memmap, Rng* shuffle_rng)
      : id_(id), memmap_(memmap), shuffle_rng_(shuffle_rng) {}

  uint64_t free_pages() const { return free_pages_; }
  uint64_t present_pages() const { return present_pages_; }
  uint64_t managed_pages() const { return managed_pages_; }
  uint64_t free_chunks(uint8_t order) const { return areas_[order].nr_free; }

  void AddFreeRange(Pfn start, uint64_t npages) {
    for (Pfn pfn = start; pfn < start + npages; ++pfn) {
      assert(memmap_->page(pfn).state == PageState::kOffline);
      memmap_->page(pfn).zone_id = id_;
    }
    present_pages_ += npages;
    managed_pages_ += npages;
    free_pages_ += npages;
    std::vector<std::pair<Pfn, uint8_t>> chunks;
    Pfn pfn = start;
    uint64_t remaining = npages;
    while (remaining > 0) {
      const uint8_t order = MaxOrderAt(pfn, remaining);
      chunks.push_back({pfn, order});
      pfn += 1u << order;
      remaining -= 1u << order;
    }
    if (shuffle_rng_ != nullptr) {
      shuffle_rng_->Shuffle(chunks.begin(), chunks.end());
    }
    for (const auto& [chunk_pfn, chunk_order] : chunks) {
      FreeChunk(chunk_pfn, chunk_order, /*fresh=*/true);
    }
  }

  Pfn Alloc(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot) {
    uint8_t from = order;
    while (from <= kMaxPageOrder && areas_[from].nr_free == 0) {
      ++from;
    }
    if (from > kMaxPageOrder) {
      return kInvalidPfn;
    }
    const Pfn chunk = areas_[from].head;
    ListRemove(from, chunk);
    while (from > order) {
      --from;
      const Pfn upper = chunk + (1u << from);
      StampFreeChunk(upper, from);
      ListPushFront(from, upper);
    }
    const uint32_t n = 1u << order;
    for (uint32_t i = 0; i < n; ++i) {
      FlatPage& p = memmap_->page(chunk + i);
      p.state = PageState::kAllocated;
      p.kind = kind;
      p.head = (i == 0);
      p.order = order;
      p.owner = (i == 0) ? owner : kNoOwner;
      p.owner_slot = (i == 0) ? owner_slot : 0;
      p.link = FreeLink{};
    }
    free_pages_ -= n;
    memmap_->AdjustBlockAllocated(chunk, n);
    return chunk;
  }

  void Free(Pfn head) {
    const uint8_t order = memmap_->page(head).order;
    free_pages_ += 1u << order;
    memmap_->AdjustBlockAllocated(head, -static_cast<int64_t>(1u << order));
    FreeChunk(head, order, /*fresh=*/false);
  }

  void FreeIntoIsolation(Pfn head) {
    const uint32_t n = 1u << memmap_->page(head).order;
    memmap_->AdjustBlockAllocated(head, -static_cast<int64_t>(n));
    for (uint32_t i = 0; i < n; ++i) {
      FlatPage& q = memmap_->page(head + i);
      q.state = PageState::kIsolated;
      q.kind = PageKind::kNone;
      q.head = false;
      q.order = 0;
      q.owner = kNoOwner;
      q.owner_slot = 0;
    }
  }

  uint64_t IsolateFreeRange(Pfn start, uint64_t npages) {
    uint64_t isolated = 0;
    Pfn pfn = start;
    while (pfn < start + npages) {
      const FlatPage& p = memmap_->page(pfn);
      if (p.state == PageState::kFree && p.head) {
        const uint32_t n = 1u << p.order;
        ListRemove(p.order, pfn);
        for (uint32_t i = 0; i < n; ++i) {
          FlatPage& q = memmap_->page(pfn + i);
          q.state = PageState::kIsolated;
          q.head = false;
          q.order = 0;
        }
        isolated += n;
        pfn += n;
      } else {
        ++pfn;
      }
    }
    free_pages_ -= isolated;
    return isolated;
  }

  void UndoIsolation(Pfn start, uint64_t npages) {
    const Pfn end = start + static_cast<Pfn>(npages);
    Pfn pfn = start;
    while (pfn < end) {
      if (memmap_->page(pfn).state != PageState::kIsolated) {
        ++pfn;
        continue;
      }
      Pfn run_end = pfn;
      while (run_end < end && memmap_->page(run_end).state == PageState::kIsolated) {
        ++run_end;
      }
      uint64_t remaining = run_end - pfn;
      free_pages_ += remaining;
      while (remaining > 0) {
        const uint8_t order = MaxOrderAt(pfn, remaining);
        FreeChunk(pfn, order, /*fresh=*/false);
        pfn += 1u << order;
        remaining -= 1u << order;
      }
    }
  }

  void RetireRange(Pfn start, uint64_t npages) {
    for (Pfn pfn = start; pfn < start + npages; ++pfn) {
      FlatPage& p = memmap_->page(pfn);
      assert(p.state == PageState::kIsolated && p.zone_id == id_);
      p.state = PageState::kOffline;
      p.zone_id = -1;
      p.head = false;
      p.order = 0;
    }
    present_pages_ -= npages;
    managed_pages_ -= npages;
  }

  void ShuffleFreeLists(Rng& rng) {
    for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
      FreeArea& area = areas_[order];
      std::vector<Pfn> chunks;
      for (Pfn pfn = area.head; pfn != kInvalidPfn; pfn = memmap_->page(pfn).link.next) {
        chunks.push_back(pfn);
      }
      rng.Shuffle(chunks.begin(), chunks.end());
      area = FreeArea{};
      for (const Pfn pfn : chunks) {
        ListPushBack(order, pfn);
      }
    }
  }

 private:
  struct FreeArea {
    Pfn head = kInvalidPfn;
    Pfn tail = kInvalidPfn;
    uint64_t nr_free = 0;
  };

  static uint8_t MaxOrderAt(Pfn pfn, uint64_t remaining) {
    uint8_t order = kMaxPageOrder;
    while (order > 0 && (((pfn & ((1u << order) - 1)) != 0) || ((1u << order) > remaining))) {
      --order;
    }
    return order;
  }

  void ListPushFront(uint8_t order, Pfn pfn) {
    FreeArea& area = areas_[order];
    memmap_->page(pfn).link = FreeLink{area.head, kInvalidPfn};
    if (area.head != kInvalidPfn) {
      memmap_->page(area.head).link.prev = pfn;
    } else {
      area.tail = pfn;
    }
    area.head = pfn;
    ++area.nr_free;
  }

  void ListPushBack(uint8_t order, Pfn pfn) {
    FreeArea& area = areas_[order];
    memmap_->page(pfn).link = FreeLink{kInvalidPfn, area.tail};
    if (area.tail != kInvalidPfn) {
      memmap_->page(area.tail).link.next = pfn;
    } else {
      area.head = pfn;
    }
    area.tail = pfn;
    ++area.nr_free;
  }

  void ListRemove(uint8_t order, Pfn pfn) {
    FreeArea& area = areas_[order];
    const FreeLink link = memmap_->page(pfn).link;
    if (link.prev != kInvalidPfn) {
      memmap_->page(link.prev).link.next = link.next;
    } else {
      area.head = link.next;
    }
    if (link.next != kInvalidPfn) {
      memmap_->page(link.next).link.prev = link.prev;
    } else {
      area.tail = link.prev;
    }
    memmap_->page(pfn).link = FreeLink{};
    --area.nr_free;
  }

  void StampFreeChunk(Pfn pfn, uint8_t order) {
    for (uint32_t i = 0; i < (1u << order); ++i) {
      FlatPage& p = memmap_->page(pfn + i);
      p.state = PageState::kFree;
      p.kind = PageKind::kNone;
      p.head = (i == 0);
      p.order = order;
      p.zone_id = id_;
      p.owner = kNoOwner;
      p.owner_slot = 0;
    }
  }

  void FreeChunk(Pfn pfn, uint8_t order, bool fresh) {
    while (order < kMaxPageOrder) {
      const Pfn buddy = pfn ^ (1u << order);
      const FlatPage& bp = memmap_->page(buddy);
      if (bp.state != PageState::kFree || !bp.head || bp.order != order || bp.zone_id != id_) {
        break;
      }
      ListRemove(order, buddy);
      memmap_->page(buddy).head = false;
      pfn = std::min(pfn, buddy);
      ++order;
    }
    StampFreeChunk(pfn, order);
    if (fresh && shuffle_rng_ != nullptr && shuffle_rng_->Chance(0.5)) {
      ListPushFront(order, pfn);
    } else if (fresh) {
      ListPushBack(order, pfn);
    } else {
      ListPushFront(order, pfn);
    }
  }

  int16_t id_;
  FlatMemMap* memmap_;
  Rng* shuffle_rng_;
  std::array<FreeArea, kMaxPageOrder + 1> areas_{};
  uint64_t free_pages_ = 0;
  uint64_t present_pages_ = 0;
  uint64_t managed_pages_ = 0;
};

}  // namespace oracle
}  // namespace squeezy

#endif  // SQUEEZY_TESTS_FLAT_MM_ORACLE_H_
