// The guest memory map: per-page `struct page` state over the managed
// guest physical span plus the hotplug memory-block state machine (Linux
// adds and removes memory in 128 MiB blocks on x86).
//
// Block summaries.  The mechanisms the simulator models act on whole
// 128 MiB blocks, and most blocks are uniform for their whole life: a
// hole, a hot-added block that is never onlined, or an onlined block from
// which nothing was ever allocated.  Such a block is stored as ONE
// per-block summary with no Page[] chunk behind it:
//   kHole      every frame is Page{} (no memory behind the block);
//   kOffline   every frame offline in no zone (hot-added, or retired);
//   kFree      online in zone `summary_zone`, entirely free as its 32
//              max-order buddy chunks (the frames read as free chunk
//              heads/tails of order kMaxPageOrder);
//   kIsolated  going offline: every frame isolated, still in the zone.
// The block lifecycle moves a summarized block between these states in
// O(1) (InitBlock, TeardownBlock here; RetireRange in the zone) or O(32)
// (whole-block AddFreeRange / IsolateFreeRange, which touch only the free
// lists) without creating a single Page.
//
// Materialize on split, summarize on offline.  Any mutable page() access
// materializes a summarized block: one pass stamps its chunk from the
// summary.  In practice the first materializing write is the first Alloc
// that pops one of a kFree block's chunks (it splits or stamps it).  The
// offline path returns a block to a summary as soon as its frames are
// uniform again: a whole-block IsolateFreeRange of a block whose
// allocations all went away (kIsolated), every whole-block RetireRange
// (kOffline) and TeardownBlock (kHole) free the chunk.  Free() never
// re-summarizes: a block that empties while online stays per page, so a
// hot alloc/free cycle does not stamp and drop 384 KiB each time.  Reads
// that must not materialize go through the const accessor, which
// synthesizes the frame from the summary.  Every state transition and
// every frame read is bit-identical to a flat per-page array
// (tests/flat_mm_oracle.h), apart from where free-list links live — only
// RSS and time change.
//
// Max-order link table.  The free-list links of max-order chunk heads live
// in a side table indexed by pfn >> kMaxPageOrder (8 B per 4 MiB), not in
// Page, so a kFree block's chunks sit on a zone free list in exactly the
// order a per-page map would give them.  Sub-max-order links live in the
// owner words of their (ownerless) free head Page, so a frame costs 12
// bytes and a materialized block's chunk 384 KiB (page.h).
//
// Host backing.  Whether the host (EPT) backs a frame is one bit in a
// per-block bitmap (4 KiB, allocated on the block's first populate) plus
// a per-block count, independent of the block's summary or chunk: a
// summarized block can be backed, and backing survives guest-side
// teardown until the hypervisor clears it (ClearHostPopulated, O(1)) or
// the block is hot-added again (InitBlock drops it).
//
// Reference stability: `page()` references are invalidated by InitBlock,
// TeardownBlock, and the zone's whole-block IsolateFreeRange and
// RetireRange of that page's block (all free the chunk); a
// materialization never moves another block's chunk.  Call sites hold a
// Page& only within one operation on an online/offline block.
#ifndef SQUEEZY_MM_MEMMAP_H_
#define SQUEEZY_MM_MEMMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

using BlockIndex = uint32_t;

enum class BlockState : uint8_t {
  kAbsent,        // No memory behind the block (never added / removed).
  kPresent,       // Hot-added: memmap initialized, pages offline.
  kOnline,        // Pages released to a zone's allocator.
  kGoingOffline,  // Offlining in progress (pages isolating/migrating).
  kOffline,       // Pages retracted from the allocator, still present.
};

// What an unmaterialized block's frames all look like (see above).
enum class BlockSummary : uint8_t {
  kMaterialized,  // Per-page chunk exists; no summary.
  kHole,
  kOffline,
  kFree,
  kIsolated,
};

class MemMap {
 public:
  // Creates the map for a guest span of `span_bytes` (rounded up to whole
  // 128 MiB blocks).  All blocks start kAbsent, summarized as holes.
  explicit MemMap(uint64_t span_bytes);

  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  uint64_t span_pages() const { return span_pages_; }
  uint32_t block_count() const { return static_cast<uint32_t>(blocks_.size()); }

  // Mutable access materializes a summarized block first.
  Page& page(Pfn pfn) {
    const BlockIndex b = BlockOf(pfn);
    Page* chunk = chunks_[b].get();
    if (chunk == nullptr) {
      chunk = Materialize(b);
    }
    return chunk[pfn - BlockStart(b)];
  }
  // Const access never materializes: a summarized block's frame is
  // synthesized from its summary.
  Page page(Pfn pfn) const {
    const BlockIndex b = BlockOf(pfn);
    const Page* chunk = chunks_[b].get();
    return chunk == nullptr ? SummaryPage(b, pfn) : chunk[pfn - BlockStart(b)];
  }

  // Whether block b's per-page chunk is currently backed by sim memory.
  bool BlockMaterialized(BlockIndex b) const { return chunks_[b] != nullptr; }
  BlockSummary summary(BlockIndex b) const { return summaries_[b].kind; }
  // The zone of a kFree / kIsolated summary (-1 otherwise).
  int16_t summary_zone(BlockIndex b) const { return summaries_[b].zone; }

  BlockState block_state(BlockIndex b) const { return blocks_[b]; }
  void set_block_state(BlockIndex b, BlockState s) { blocks_[b] = s; }

  static BlockIndex BlockOf(Pfn pfn) { return pfn / kPagesPerBlock; }
  static Pfn BlockStart(BlockIndex b) { return b * kPagesPerBlock; }

  // Hot-add: every frame of the block becomes offline (-> kPresent).  The
  // block ends up summarized; host backing a previous teardown kept is
  // dropped, as the per-page re-initialization always did.
  void InitBlock(BlockIndex b);
  // Hot-remove: tear down memmap entries (-> kHole).  Requires every page
  // to be kOffline.  Always frees the chunk (O(1)); host backing is
  // untouched (the hypervisor's HotRemoveBlock clears it first).
  void TeardownBlock(BlockIndex b);

  // --- Host backing (see above) ---------------------------------------------
  bool host_populated(Pfn pfn) const {
    const uint64_t* bits = backing_[BlockOf(pfn)].bits.get();
    const uint32_t i = pfn % kPagesPerBlock;
    return bits != nullptr && ((bits[i / 64] >> (i % 64)) & 1u) != 0;
  }
  // Marks [first, first + n) host-backed and returns how many of those
  // frames were not backed before.  The range may cross block boundaries.
  uint64_t PopulateRange(Pfn first, uint32_t n);
  // Drops one frame's backing; returns whether it was backed.
  bool Unpopulate(Pfn pfn);
  // Drops every frame's backing in the block and returns how many were
  // backed (O(1): frees the bitmap).
  uint64_t ClearHostPopulated(BlockIndex b);

  // Number of pages in the block with the given state (O(1) on a
  // summarized block, an O(block) scan otherwise; the tests use it to
  // cross-check the incremental counter below).
  uint64_t CountBlockPages(BlockIndex b, PageState state) const;

  // Incrementally maintained count of allocated pages per block, updated
  // by the zone allocator.  O(1); unplug candidate selection depends on it.
  uint32_t BlockOccupied(BlockIndex b) const { return allocated_per_block_[b]; }
  void AdjustBlockAllocated(Pfn head, int64_t delta_pages) {
    const BlockIndex b = BlockOf(head);
    allocated_per_block_[b] = static_cast<uint32_t>(allocated_per_block_[b] + delta_pages);
  }

  // Free-list links of the max-order chunk headed by `head`.
  FreeLink& max_link(Pfn head) { return max_links_[head >> kMaxPageOrder]; }
  const FreeLink& max_link(Pfn head) const { return max_links_[head >> kMaxPageOrder]; }

  // Resolve a folio's head pfn from any of its frames.
  Pfn FolioHead(Pfn pfn) const;

  // Count of blocks in each state (diagnostics).
  uint32_t CountBlocks(BlockState s) const;

  // --- Materialization accounting (the per-host sim-RSS signal) ------------
  static uint64_t ChunkBytes() { return kPagesPerBlock * sizeof(Page); }
  uint32_t materialized_blocks() const { return materialized_; }
  uint32_t materialized_peak_blocks() const { return materialized_peak_; }
  uint64_t materialized_bytes() const { return materialized_ * ChunkBytes(); }
  uint64_t materialized_peak_bytes() const { return materialized_peak_ * ChunkBytes(); }

 private:
  // The zone's whole-block transitions move summaries (Summarize) in step
  // with its free lists.
  friend class Zone;

  // A chunk's storage is filled in place by Materialize (one pass, no
  // value-initialization first); Page is trivially destructible.
  struct ChunkDeleter {
    void operator()(Page* chunk) const { std::allocator<Page>().deallocate(chunk, kPagesPerBlock); }
  };
  using Chunk = std::unique_ptr<Page[], ChunkDeleter>;

  struct Summary {
    BlockSummary kind = BlockSummary::kHole;
    int16_t zone = -1;
  };

  // Per-block host backing: one bit per frame, null until first populated.
  struct Backing {
    std::unique_ptr<uint64_t[]> bits;
    uint32_t populated = 0;
  };
  static constexpr uint32_t kBackingWords = kPagesPerBlock / 64;

  // Summarizes block b as `kind` (in `zone`), freeing its chunk if it has
  // one; the caller guarantees every frame already reads as that summary.
  void Summarize(BlockIndex b, BlockSummary kind, int16_t zone = -1);
  // Frame `pfn` of summarized block b.
  Page SummaryPage(BlockIndex b, Pfn pfn) const;
  Page* Materialize(BlockIndex b);

  uint64_t span_pages_ = 0;
  // One Page[kPagesPerBlock] chunk per materialized block, null while the
  // block is summarized.
  std::vector<Chunk> chunks_;
  std::vector<Summary> summaries_;
  std::vector<BlockState> blocks_;
  std::vector<uint32_t> allocated_per_block_;
  std::vector<FreeLink> max_links_;
  std::vector<Backing> backing_;
  uint32_t materialized_ = 0;
  uint32_t materialized_peak_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_MEMMAP_H_
