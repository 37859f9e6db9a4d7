#include "src/mm/memmap.h"

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

void MemMap::DropChunk(BlockIndex b, BlockSummary kind) {
  if (chunks_[b] != nullptr) {
    chunks_[b].reset();
    --materialized_;
  }
  summaries_[b] = Summary{kind, -1};
}

void MemMap::SetSummary(BlockIndex b, BlockSummary kind, int16_t zone) {
  assert(chunks_[b] == nullptr && kind != BlockSummary::kMaterialized);
  summaries_[b] = Summary{kind, zone};
}

void MemMap::InitBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kAbsent);
  assert(CountBlockPages(b, PageState::kHole) == kPagesPerBlock);
  DropChunk(b, BlockSummary::kOffline);
  blocks_[b] = BlockState::kPresent;
}

void MemMap::TeardownBlock(BlockIndex b) {
  assert(blocks_[b] == BlockState::kOffline || blocks_[b] == BlockState::kPresent);
  assert(CountBlockPages(b, PageState::kOffline) == kPagesPerBlock);
  blocks_[b] = BlockState::kAbsent;
  Page* chunk = chunks_[b].get();
  if (chunk == nullptr) {
    summaries_[b] = Summary{BlockSummary::kHole, -1};
    return;
  }
  bool any_populated = false;
  for (Page* p = chunk; p < chunk + kPagesPerBlock; ++p) {
    // Host population survives guest-side teardown only conceptually; the
    // hypervisor clears it via madvise when it reclaims the range.
    const bool populated = p->host_populated;
    *p = Page{};
    p->host_populated = populated;
    any_populated = any_populated || populated;
  }
  if (!any_populated) {
    // Every page is back to the default hole the summary synthesizes —
    // drop the chunk and return its sim memory (the hypervisor's
    // HotRemoveBlock clears host_populated before tearing down, so real
    // unplugs always take this path).
    DropChunk(b, BlockSummary::kHole);
  }
}

uint64_t MemMap::ClearHostPopulated(BlockIndex b) {
  uint64_t cleared = 0;
  Page* chunk = chunks_[b].get();
  if (chunk == nullptr) {
    return 0;
  }
  for (Page* p = chunk; p < chunk + kPagesPerBlock; ++p) {
    cleared += p->host_populated ? 1 : 0;
    p->host_populated = false;
  }
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
