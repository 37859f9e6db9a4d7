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
  chunks_.resize(blocks);
  summaries_.resize(blocks);
  blocks_.assign(blocks, BlockState::kAbsent);
  allocated_per_block_.assign(blocks, 0);
  max_links_.resize(span_pages_ >> kMaxPageOrder);
  backing_.resize(blocks);
}

Page MemMap::SummaryPage(BlockIndex b, Pfn pfn) const {
  const Summary& s = summaries_[b];
  Page p;
  switch (s.kind) {
    case BlockSummary::kMaterialized:
      assert(false && "summary read of a materialized block");
      break;
    case BlockSummary::kHole:
      break;
    case BlockSummary::kOffline:
      p.state = PageState::kOffline;
      break;
    case BlockSummary::kFree:
      p.state = PageState::kFree;
      p.order = kMaxPageOrder;
      p.head = (pfn & ((1u << kMaxPageOrder) - 1)) == 0;
      p.zone_id = s.zone;
      break;
    case BlockSummary::kIsolated:
      p.state = PageState::kIsolated;
      p.zone_id = s.zone;
      break;
  }
  return p;
}

Page* MemMap::Materialize(BlockIndex b) {
  assert(chunks_[b] == nullptr);
  // One stamping pass: every frame starts as the summary says it is (the
  // max-order heads of a kFree block differ from its tails in `head`).
  Page* chunk = std::allocator<Page>().allocate(kPagesPerBlock);
  chunks_[b] = Chunk(chunk);
  const Pfn start = BlockStart(b);
  std::uninitialized_fill_n(chunk, kPagesPerBlock, SummaryPage(b, start + 1));
  if (summaries_[b].kind == BlockSummary::kFree) {
    for (uint32_t i = 0; i < kPagesPerBlock; i += 1u << kMaxPageOrder) {
      chunk[i].head = true;
    }
  }
  summaries_[b] = Summary{BlockSummary::kMaterialized, -1};
  ++materialized_;
  materialized_peak_ = materialized_ > materialized_peak_ ? materialized_ : materialized_peak_;
  return chunk;
}

void MemMap::Summarize(BlockIndex b, BlockSummary kind, int16_t zone) {
  assert(kind != BlockSummary::kMaterialized);
  if (chunks_[b] != nullptr) {
    chunks_[b].reset();
    --materialized_;
  }
  summaries_[b] = Summary{kind, zone};
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  assert(CountBlockPages(b, PageState::kHole) == kPagesPerBlock);
  Summarize(b, BlockSummary::kOffline);
  backing_[b] = Backing{};
  blocks_[b] = BlockState::kPresent;
}

void MemMap::TeardownBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  blocks_[b] = BlockState::kAbsent;
  Summarize(b, BlockSummary::kHole);
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
  const Page* chunk = chunks_[b].get();
  if (chunk == nullptr) {
    return SummaryPage(b, BlockStart(b)).state == state ? kPagesPerBlock : 0;
  }
  uint64_t n = 0;
  for (const Page* p = chunk; p < chunk + kPagesPerBlock; ++p) {
    if (p->state == state) {
      ++n;
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
