#include "src/mm/zone.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace squeezy {
namespace {

// The largest order of a naturally aligned chunk at pfn that fits in
// `remaining` pages.
uint8_t LargestAlignedOrder(Pfn pfn, uint64_t remaining) {
  uint8_t order = kMaxPageOrder;
  while (order > 0 &&
         (((pfn & ((1u << order) - 1)) != 0) || ((1u << order) > remaining))) {
    --order;
  }
  return order;
}

}  // namespace

const char* ZoneTypeName(ZoneType t) {
  switch (t) {
    case ZoneType::kNormal:
      return "Normal";
    case ZoneType::kMovable:
      return "Movable";
    case ZoneType::kSqueezyPrivate:
      return "SqueezyPrivate";
    case ZoneType::kSqueezyShared:
      return "SqueezyShared";
  }
  return "?";
}

Zone::Zone(int16_t id, ZoneType type, std::string name, MemMap* memmap, Rng* shuffle_rng)
    : id_(id),
      type_(type),
      name_(std::move(name)),
      memmap_(memmap),
      shuffle_rng_(shuffle_rng) {
  assert(memmap_ != nullptr);
}

FreeLink Zone::LinkAt(uint8_t order, Pfn pfn) const {
  return order == kMaxPageOrder ? map().max_link(pfn) : map().page(pfn).link();
}

Page& Zone::HeadFrame(uint8_t order, Pfn pfn) {
  // A chunk of order >= kThpOrder heads a granule: write its record (or
  // frame 0) without materializing the granule.
  return order >= kThpOrder ? memmap_->GranuleHead(pfn) : memmap_->page(pfn);
}

bool Zone::IsFreeHead(const Page& p, uint8_t order) const {
  return p.state == PageState::kFree && p.head && p.order == order && p.zone_id == id_;
}

Page Zone::IsolatedFrame() const {
  Page p;
  p.state = PageState::kIsolated;
  p.zone_id = id_;
  return p;
}

void Zone::SetLink(uint8_t order, Pfn pfn, const FreeLink& link) {
  if (order == kMaxPageOrder) {
    memmap_->max_link(pfn) = link;
  } else {
    HeadFrame(order, pfn).set_link(link);
  }
}

void Zone::SetNext(uint8_t order, Pfn pfn, Pfn next) {
  FreeLink link = LinkAt(order, pfn);
  link.next = next;
  SetLink(order, pfn, link);
}

void Zone::SetPrev(uint8_t order, Pfn pfn, Pfn prev) {
  FreeLink link = LinkAt(order, pfn);
  link.prev = prev;
  SetLink(order, pfn, link);
}

void Zone::ListPushFront(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  SetLink(order, pfn, FreeLink{area.head, kInvalidPfn});
  if (area.head != kInvalidPfn) {
    SetPrev(order, area.head, pfn);
  } else {
    area.tail = pfn;
  }
  area.head = pfn;
  ++area.nr_free;
}

void Zone::ListPushBack(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  SetLink(order, pfn, FreeLink{kInvalidPfn, area.tail});
  if (area.tail != kInvalidPfn) {
    SetNext(order, area.tail, pfn);
  } else {
    area.head = pfn;
  }
  area.tail = pfn;
  ++area.nr_free;
}

void Zone::ListRemove(uint8_t order, Pfn pfn) {
  FreeArea& area = areas_[order];
  const FreeLink link = LinkAt(order, pfn);
  if (link.prev != kInvalidPfn) {
    SetNext(order, link.prev, link.next);
  } else {
    assert(area.head == pfn);
    area.head = link.next;
  }
  if (link.next != kInvalidPfn) {
    SetPrev(order, link.next, link.prev);
  } else {
    assert(area.tail == pfn);
    area.tail = link.prev;
  }
  // An unlisted head's words hold its (empty) owner again.
  if (order == kMaxPageOrder) {
    memmap_->max_link(pfn) = FreeLink{};
  } else {
    HeadFrame(order, pfn).clear_link();
  }
  assert(area.nr_free > 0);
  --area.nr_free;
}

Pfn Zone::ListPopFront(uint8_t order) {
  FreeArea& area = areas_[order];
  if (area.head == kInvalidPfn) {
    return kInvalidPfn;
  }
  const Pfn pfn = area.head;
  ListRemove(order, pfn);
  return pfn;
}

void Zone::StampFreeChunk(Pfn pfn, uint8_t order) {
  Page head;
  head.state = PageState::kFree;
  head.order = order;
  head.head = true;
  head.zone_id = id_;
  memmap_->SetChunk(pfn, order, head);
}

void Zone::FreeChunk(Pfn pfn, uint8_t order, bool fresh) {
  assert((pfn & ((1u << order) - 1)) == 0 && "chunk must be naturally aligned");
  // Coalesce with the buddy while possible.
  while (order < kMaxPageOrder) {
    const Pfn buddy = pfn ^ (1u << order);
    if (buddy >= memmap_->span_pages()) {
      break;
    }
    const Page bp = map().page(buddy);
    if (!IsFreeHead(bp, order)) {
      break;
    }
    ListRemove(order, buddy);  // The stamp below rewrites its frames.
    pfn = std::min(pfn, buddy);
    ++order;
  }
  StampFreeChunk(pfn, order);
  InsertFreeChunk(pfn, order, fresh);
}

void Zone::InsertFreeChunk(Pfn pfn, uint8_t order, bool fresh) {
  // Insertion policy mirrors Linux behaviour closely enough for placement
  // realism: freshly onlined memory queues at the tail (a new zone hands
  // out ascending addresses) — randomized in shuffled zones (the
  // SHUFFLE_PAGE_ALLOCATOR effect) — while runtime frees always go to the
  // head: the kernel reuses recently-freed (host-backed, cache-hot) pages
  // first, which keeps a VM's host footprint near its high watermark
  // instead of creeping across the whole region.
  if (fresh && shuffle_rng_ != nullptr && shuffle_rng_->Chance(0.5)) {
    ListPushFront(order, pfn);
  } else if (fresh) {
    ListPushBack(order, pfn);
  } else {
    ListPushFront(order, pfn);
  }
}

void Zone::AddFreeRange(Pfn start, uint64_t npages) {
  // Attribute pages to this zone first.  A whole granule needs nothing
  // here: the order >= 9 chunk freed over it below stamps its zone.
  const uint64_t end = uint64_t{start} + npages;
  for (uint64_t pfn = start; pfn < end;) {
    const uint64_t granule_end = std::min<uint64_t>(end, (pfn | (kGranulePages - 1)) + 1);
    if (granule_end - pfn < kGranulePages) {
      Page* pages = &memmap_->page(static_cast<Pfn>(pfn));  // One granule.
      for (uint64_t i = 0; i < granule_end - pfn; ++i) {
        assert(pages[i].state == PageState::kOffline);
        pages[i].zone_id = id_;
      }
    }
    assert(map().page(static_cast<Pfn>(pfn)).state == PageState::kOffline);
    pfn = granule_end;
  }
  present_pages_ += npages;
  managed_pages_ += npages;
  free_pages_ += npages;

  // Free maximal naturally-aligned chunks.
  std::vector<std::pair<Pfn, uint8_t>> chunks;
  Pfn pfn = start;
  uint64_t remaining = npages;
  while (remaining > 0) {
    const uint8_t order = LargestAlignedOrder(pfn, remaining);
    chunks.push_back({pfn, order});
    pfn += 1u << order;
    remaining -= 1u << order;
  }
  // Linux's shuffle_page_allocator randomizes the free-list order of
  // onlined memory so steady-state allocations scatter across blocks;
  // that scatter is what makes vanilla unplug migrate (paper §2.2).
  if (shuffle_rng_ != nullptr) {
    shuffle_rng_->Shuffle(chunks.begin(), chunks.end());
  }
  for (const auto& [chunk_pfn, chunk_order] : chunks) {
    FreeChunk(chunk_pfn, chunk_order, /*fresh=*/true);
  }
}

Pfn Zone::Alloc(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot) {
  assert(order <= kMaxPageOrder);
  // Find the smallest order with a free chunk.
  uint8_t from = order;
  while (from <= kMaxPageOrder && areas_[from].nr_free == 0) {
    ++from;
  }
  if (from > kMaxPageOrder) {
    return kInvalidPfn;
  }
  Pfn chunk = ListPopFront(from);
  assert(chunk != kInvalidPfn);

  // Split down, returning upper halves to the free lists.
  while (from > order) {
    --from;
    const Pfn upper = chunk + (1u << from);
    StampFreeChunk(upper, from);
    ListPushFront(from, upper);
  }

  // The frames' zone is already this one (the per-page path keeps it).
  assert(map().page(chunk).zone_id == id_);
  const uint32_t n = 1u << order;
  Page head;
  head.state = PageState::kAllocated;
  head.kind = kind;
  head.order = order;
  head.head = true;
  head.zone_id = id_;
  head.owner = owner;
  head.owner_slot = owner_slot;
  memmap_->SetChunk(chunk, order, head);
  assert(free_pages_ >= n);
  free_pages_ -= n;
  memmap_->AdjustBlockAllocated(chunk, n);
  return chunk;
}

uint64_t Zone::AllocPages(uint64_t n, PageKind kind, int32_t owner, uint32_t first_slot,
                          std::vector<PfnRun>* runs) {
  // n Alloc(0) calls pop the smallest non-empty order's front chunk and
  // then, splitting it, hand out its frames in ascending order while every
  // lower order holds exactly one of its pieces.  So take a popped chunk
  // whole, or its first `take` frames and queue the untaken tail as those
  // pieces would end up: one aligned piece per set bit of the tail length,
  // smallest first, each on a list that was empty (every order below the
  // popped one was).  After a whole chunk the lower orders are still
  // empty, so the search resumes at the same order.
  Page frame;  // Every taken frame is an order-0 head; its zone is kept.
  frame.state = PageState::kAllocated;
  frame.kind = kind;
  frame.head = true;
  frame.zone_id = id_;
  frame.owner = owner;
  uint64_t done = 0;
  uint8_t from = 0;
  while (done < n) {
    while (from <= kMaxPageOrder && areas_[from].nr_free == 0) {
      ++from;
    }
    if (from > kMaxPageOrder) {
      break;
    }
    const Pfn chunk = ListPopFront(from);
    const uint32_t size = 1u << from;
    const uint32_t take = static_cast<uint32_t>(std::min<uint64_t>(n - done, size));
    // A granule at a time (a chunk below THP order lies in one granule, a
    // larger one starts at a granule): a granule taken whole is written
    // once, a partly taken one materializes first.
    uint32_t slot = first_slot + static_cast<uint32_t>(done);
    for (uint32_t g = 0; g < take; g += kGranulePages) {
      const uint32_t stop = std::min(take - g, kGranulePages);
      Page* pages = stop == kGranulePages ? memmap_->FramesToOverwrite(chunk + g)
                                          : &memmap_->page(chunk + g);
      for (uint32_t i = 0; i < stop; ++i) {
        frame.owner_slot = slot++;
        FillPages(pages + i, 1, frame);
      }
    }
    runs->push_back(PfnRun{chunk, take});
    const uint32_t tail = size - take;
    Pfn piece = chunk + take;
    for (uint8_t order = 0; order < from; ++order) {
      if ((tail >> order) & 1u) {
        StampFreeChunk(piece, order);
        ListPushFront(order, piece);
        piece += 1u << order;
      }
    }
    assert(free_pages_ >= take);
    free_pages_ -= take;
    memmap_->AdjustBlockAllocated(chunk, take);
    done += take;
  }
  return done;
}

void Zone::Free(Pfn head) {
  const Page p = map().page(head);
  assert(p.state == PageState::kAllocated && p.head);
  assert(p.zone_id == id_);
  const uint8_t order = p.order;
  free_pages_ += 1u << order;
  memmap_->AdjustBlockAllocated(head, -static_cast<int64_t>(1u << order));
  FreeChunk(head, order);
}

void Zone::FreeIntoIsolation(Pfn head) {
  const Page p = map().page(head);
  assert(p.state == PageState::kAllocated && p.head);
  assert(p.zone_id == id_);
  const uint32_t n = 1u << p.order;
  memmap_->AdjustBlockAllocated(head, -static_cast<int64_t>(n));
  memmap_->SetChunk(head, p.order, IsolatedFrame());
  // Isolated pages no longer count as allocatable; they were allocated, so
  // free_pages_ is unchanged.
}

uint64_t Zone::IsolateFreeRange(Pfn start, uint64_t npages) {
  // Free chunk heads are what gets isolated; a uniform granule without one
  // is stepped over in one move.
  uint64_t isolated = 0;
  const Pfn end = start + static_cast<Pfn>(npages);
  Pfn pfn = start;
  while (pfn < end) {
    const Page p = map().page(pfn);
    if (p.state != PageState::kFree || !p.head) {
      assert(p.state != PageState::kFree && "tail free page without a head in range");
      pfn = std::min(map().NextDistinct(pfn), end);
      continue;
    }
    const uint8_t order = p.order;
    const uint32_t n = 1u << order;
    assert(pfn + n <= end && "free chunks never straddle the range");
    ListRemove(order, pfn);  // Leaves the head ownerless, like its tails.
    memmap_->SetChunk(pfn, order, IsolatedFrame());
    isolated += n;
    pfn += n;
  }
  assert(free_pages_ >= isolated);
  free_pages_ -= isolated;
  return isolated;
}

void Zone::UndoIsolation(Pfn start, uint64_t npages) {
  // Re-free maximal runs of isolated pages.
  Pfn pfn = start;
  const Pfn end = start + static_cast<Pfn>(npages);
  while (pfn < end) {
    if (map().page(pfn).state != PageState::kIsolated) {
      pfn = std::min(map().NextDistinct(pfn), end);
      continue;
    }
    Pfn run_end = pfn;
    while (run_end < end && map().page(run_end).state == PageState::kIsolated) {
      run_end = std::min(map().NextDistinct(run_end), end);
    }
    uint64_t remaining = run_end - pfn;
    free_pages_ += remaining;
    while (remaining > 0) {
      const uint8_t order = LargestAlignedOrder(pfn, remaining);
      FreeChunk(pfn, order);
      pfn += 1u << order;
      remaining -= 1u << order;
    }
  }
}

void Zone::RetireRange(Pfn start, uint64_t npages) {
  // Offline works a block at a time: every frame of a block is isolated
  // by now (the precondition), so it retires to 64 uniform offline
  // granules, whatever frames it had.
  assert(start % kPagesPerBlock == 0 && npages % kPagesPerBlock == 0);
  Page offline;
  offline.state = PageState::kOffline;
  const BlockIndex first = MemMap::BlockOf(start);
  for (BlockIndex b = first; b < first + npages / kPagesPerBlock; ++b) {
    assert(map().CountBlockPages(b, PageState::kIsolated) == kPagesPerBlock);
    assert(map().page(MemMap::BlockStart(b)).zone_id == id_);
    memmap_->SetBlock(b, offline);
  }
  assert(present_pages_ >= npages && managed_pages_ >= npages);
  present_pages_ -= npages;
  managed_pages_ -= npages;
}

void Zone::ShuffleFreeLists(Rng& rng) {
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    FreeArea& area = areas_[order];
    std::vector<Pfn> chunks;
    chunks.reserve(area.nr_free);
    for (Pfn pfn = area.head; pfn != kInvalidPfn; pfn = LinkAt(order, pfn).next) {
      chunks.push_back(pfn);
    }
    rng.Shuffle(chunks.begin(), chunks.end());
    area.head = kInvalidPfn;
    area.tail = kInvalidPfn;
    area.nr_free = 0;
    for (const Pfn pfn : chunks) {
      ListPushBack(order, pfn);
    }
  }
}

bool Zone::CheckFreeLists() const {
  uint64_t pages_seen = 0;
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    const FreeArea& area = areas_[order];
    uint64_t chunks = 0;
    Pfn prev = kInvalidPfn;
    for (Pfn pfn = area.head; pfn != kInvalidPfn; pfn = LinkAt(order, pfn).next) {
      const Page p = map().page(pfn);
      if (!IsFreeHead(p, order)) {
        return false;
      }
      if ((pfn & ((1u << order) - 1)) != 0) {
        return false;  // Misaligned chunk.
      }
      if (LinkAt(order, pfn).prev != prev) {
        return false;  // Broken back-link.
      }
      prev = pfn;
      ++chunks;
      pages_seen += 1u << order;
      if (chunks > area.nr_free) {
        return false;  // Cycle or counter mismatch.
      }
    }
    if (area.tail != prev || chunks != area.nr_free) {
      return false;
    }
  }
  return pages_seen == free_pages_;
}

}  // namespace squeezy
