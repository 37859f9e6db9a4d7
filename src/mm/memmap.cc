#include "src/mm/memmap.h"

#include <algorithm>
#include <cassert>
#include <memory>

namespace squeezy {

MemMap::MemMap(uint64_t span_bytes) {
  const uint64_t blocks = BytesToBlocks(span_bytes);
  assert(blocks > 0);
  assert(blocks * kPagesPerBlock < kInvalidPfn);
  span_pages_ = blocks * kPagesPerBlock;
  records_.resize(span_pages_ / kGranulePages);
  frames_.resize(span_pages_ / kGranulePages);
  blocks_.assign(blocks, BlockState::kAbsent);
  allocated_per_block_.assign(blocks, 0);
  max_links_.resize(span_pages_ >> kMaxPageOrder);
  backing_.resize(blocks);
}

Page MemMap::UniformFrame(Pfn pfn) const {
  Page frame = records_[pfn / kGranulePages];
  const uint32_t i = pfn % kGranulePages;
  if (IsRun(frame)) {
    frame.owner_slot += i;
    return frame;
  }
  return i == 0 ? frame : Tail(frame);
}

Page* MemMap::Materialize(uint32_t granule) {
  assert(frames_[granule] == nullptr);
  Page* frames = std::allocator<Page>().allocate(kGranulePages);
  frames_[granule] = Frames(frames);
  ++materialized_;
  materialized_peak_ = std::max(materialized_peak_, materialized_);
  // One stamping pass: a run's frames count their slots up from the
  // record's; otherwise frame 0 is the record and every other its tail.
  Page frame = records_[granule];
  if (IsRun(frame)) {
    for (uint32_t i = 0; i < kGranulePages; ++i, ++frame.owner_slot) {
      FillPages(frames + i, 1, frame);
    }
    return frames;
  }
  FillPages(frames, kGranulePages, Tail(frame));
  frames[0] = frame;
  return frames;
}

void MemMap::SetChunk(Pfn pfn, uint8_t order, const Page& head) {
  assert(order <= kMaxPageOrder);
  assert((pfn & ((1u << order) - 1)) == 0);
  if (order < kThpOrder) {
    Page* frames = &page(pfn);  // One granule.
    FillPages(frames, 1u << order, Tail(head));
    frames[0] = head;
    return;
  }
  const uint32_t first = pfn / kGranulePages;
  const uint32_t last = first + (1u << (order - kThpOrder));
  for (uint32_t g = first; g < last; ++g) {
    records_[g] = g == first ? head : Tail(head);
    DropFrames(g);
  }
}

void MemMap::SetBlock(BlockIndex b, const Page& frame) {
  assert(!frame.head && frame.owner == kNoOwner && frame.owner_slot == 0);
  constexpr uint32_t kGranulesPerBlock = kPagesPerBlock / kGranulePages;
  const uint32_t first = b * kGranulesPerBlock;
  FillPages(&records_[first], kGranulesPerBlock, frame);  // Each record is its own tail.
  for (uint32_t g = first; g < first + kGranulesPerBlock; ++g) {
    DropFrames(g);
  }
}

void MemMap::SetRun(Pfn pfn, const Page& first) {
  assert(pfn % kGranulePages == 0 && IsRun(first));
  records_[pfn / kGranulePages] = first;
  DropFrames(pfn / kGranulePages);
}

void MemMap::DropFrames(uint32_t granule) {
  if (frames_[granule] != nullptr) {
    frames_[granule].reset();
    --materialized_;
  }
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  assert(CountBlockPages(b, PageState::kHole) == kPagesPerBlock);
  Page offline;
  offline.state = PageState::kOffline;
  SetBlock(b, offline);
  backing_[b] = Backing{};
  blocks_[b] = BlockState::kPresent;
}

void MemMap::TeardownBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  blocks_[b] = BlockState::kAbsent;
  SetBlock(b, Page{});
}

uint64_t MemMap::PopulateRange(Pfn first, uint32_t n) {
  uint64_t added = 0;
  const uint64_t end = uint64_t{first} + n;
  assert(end <= span_pages_);
  for (uint64_t pfn = first; pfn < end;) {
    const BlockIndex b = BlockOf(static_cast<Pfn>(pfn));
    const uint64_t block_end =
        std::min<uint64_t>(end, uint64_t{BlockStart(b)} + kPagesPerBlock);
    Backing& backing = backing_[b];
    if (backing.bits == nullptr) {
      backing.bits = std::make_unique<uint64_t[]>(kBackingWords);  // Zeroed.
    }
    // Word by word over the block-relative bit range [lo, hi).
    uint32_t lo = static_cast<uint32_t>(pfn - BlockStart(b));
    const uint32_t hi = static_cast<uint32_t>(block_end - BlockStart(b));
    while (lo < hi) {
      const uint32_t bit = lo % 64;
      const uint32_t width = std::min<uint32_t>(64 - bit, hi - lo);
      const uint64_t ones = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
      const uint64_t mask = ones << bit;
      uint64_t& word = backing.bits[lo / 64];
      const uint32_t fresh = static_cast<uint32_t>(__builtin_popcountll(mask & ~word));
      word |= mask;
      backing.populated += fresh;
      added += fresh;
      lo += width;
    }
    pfn = block_end;
  }
  return added;
}

bool MemMap::Unpopulate(Pfn pfn) {
  Backing& backing = backing_[BlockOf(pfn)];
  if (backing.bits == nullptr) {
    return false;
  }
  const uint32_t i = pfn % kPagesPerBlock;
  uint64_t& word = backing.bits[i / 64];
  const uint64_t bit = uint64_t{1} << (i % 64);
  if ((word & bit) == 0) {
    return false;
  }
  word &= ~bit;
  --backing.populated;
  return true;
}

uint64_t MemMap::ClearHostPopulated(BlockIndex b) {
  const uint64_t cleared = backing_[b].populated;
  backing_[b] = Backing{};
  return cleared;
}

uint64_t MemMap::CountBlockPages(BlockIndex b, PageState state) const {
  uint64_t n = 0;
  const Pfn start = BlockStart(b);
  for (Pfn pfn = start; pfn < start + kPagesPerBlock; pfn += kGranulePages) {
    const Page* frames = frames_[pfn / kGranulePages].get();
    if (frames == nullptr) {
      n += records_[pfn / kGranulePages].state == state ? kGranulePages : 0;
      continue;
    }
    for (const Page* p = frames; p < frames + kGranulePages; ++p) {
      n += p->state == state ? 1 : 0;
    }
  }
  return n;
}

Pfn MemMap::FolioHead(Pfn pfn) const {
  // Walk down to the aligned head: heads are naturally aligned, so clear
  // low bits until we find the flagged head page.  (Folios never span
  // blocks — kMaxPageOrder < log2(kPagesPerBlock) — so all candidates hit
  // the same block.)
  for (uint8_t order = 0; order <= kMaxPageOrder; ++order) {
    const Pfn candidate = pfn & ~((1u << order) - 1);
    if (page(candidate).head) {
      return candidate;
    }
  }
  assert(false && "no folio head found");
  return kInvalidPfn;
}

uint32_t MemMap::CountBlocks(BlockState s) const {
  uint32_t n = 0;
  for (const BlockState b : blocks_) {
    if (b == s) {
      ++n;
    }
  }
  return n;
}

}  // namespace squeezy
