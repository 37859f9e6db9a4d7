// The guest memory map: per-page `struct page` state over the managed
// guest physical span plus the hotplug memory-block state machine (Linux
// adds and removes memory in 128 MiB blocks on x86).
//
// Granule map.  The span is cut into 2 MiB granules (kGranulePages = 512
// frames, one THP folio).  Every granule has ONE 12-byte Page record; a
// Page[512] of frames exists only while the granule is split below THP
// order.  A granule without frames is *uniform*: frame 0 reads as its
// record, and frames 1..511 read as the record's tails — the record with
// head=false and owner words {kNoOwner, 0}.  That rule reproduces bit for
// bit every frame the per-page code writes at order >= kThpOrder: a free
// chunk or allocated folio of order 9 (record = head) or 10 (the second
// granule's record is itself a tail), isolated and offline frames
// (order 0, head=false), and holes.  One more rule, for *runs*: a record
// that is an allocated order-0 head reads frame i as the record with
// owner_slot + i — a granule AllocPages took whole (SetRun), as a file
// fault or balloon inflation takes it.  No other write leaves such a
// record (every write below order 9 goes through frames), so the record
// alone says which rule applies.  So the buddy allocator's order >= 9
// work writes one or two records, a hot(un)plug lifecycle step writes a
// block's 64 records, a run writes one per granule, and a block that
// only ever held THP folios and whole runs never allocates a frame.
//
// Materialize on split, drop on any order >= 9 write.  A mutable page()
// access materializes only its granule: one 512-frame stamp from the
// record (a run's with ascending slots, so the first Free, migration or
// isolation of one of its frames leaves the frames the per-page code
// had).  In practice that is the first split of a granule's chunk below
// order 9, or the first write to a run.  Every chunk write at order >= 9
// (SetChunk: THP/max-order alloc, free, isolation; SetBlock: init,
// retire, teardown) and every SetRun writes records and frees the
// frames, so a granule holds frames only while something below THP order
// other than a whole run lives in it (or a mutable touch materialized it).
// Reads that must not materialize go through the const accessor.  Every
// state transition and every frame read is bit-identical to a flat
// per-page array (tests/flat_mm_oracle.h), apart from where free-list
// links live — only RSS and time change.
//
// Free-list links.  Max-order (order-10) chunk heads keep their links in
// a side table indexed by pfn >> kMaxPageOrder (8 B per 4 MiB).  Every
// other listed free head keeps them in its owner words (page.h): an
// order-9 head in its granule's record, a smaller one in its frame.
//
// Host backing.  Whether the host (EPT) backs a frame is one bit in a
// per-block bitmap (4 KiB, allocated on the block's first populate) plus
// a per-block count, independent of the granules: a uniform granule can be
// backed, and backing survives guest-side teardown until the hypervisor
// clears it (ClearHostPopulated, O(1)) or the block is hot-added again
// (InitBlock drops it).
//
// Reference stability: a `page()` reference is invalidated by any
// order >= 9 write that covers its granule (which frees the frames).
// Call sites hold a Page& only within one operation on its granule.
#ifndef SQUEEZY_MM_MEMMAP_H_
#define SQUEEZY_MM_MEMMAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

using BlockIndex = uint32_t;

// Frames in one granule: one THP folio, 2 MiB.
inline constexpr uint32_t kGranulePages = 1u << kThpOrder;

enum class BlockState : uint8_t {
  kAbsent,        // No memory behind the block (never added / removed).
  kPresent,       // Hot-added: memmap initialized, pages offline.
  kOnline,        // Pages released to a zone's allocator.
  kGoingOffline,  // Offlining in progress (pages isolating/migrating).
  kOffline,       // Pages retracted from the allocator, still present.
};

class MemMap {
 public:
  // Creates the map for a guest span of `span_bytes` (rounded up to whole
  // 128 MiB blocks).  All blocks start kAbsent, every granule a uniform hole.
  explicit MemMap(uint64_t span_bytes);

  MemMap(const MemMap&) = delete;
  MemMap& operator=(const MemMap&) = delete;

  uint64_t span_pages() const { return span_pages_; }
  uint32_t block_count() const { return static_cast<uint32_t>(blocks_.size()); }

  // Mutable access materializes the frame's granule first.
  Page& page(Pfn pfn) {
    Page* frames = frames_[pfn / kGranulePages].get();
    if (frames == nullptr) {
      frames = Materialize(pfn / kGranulePages);
    }
    return frames[pfn % kGranulePages];
  }
  // Const access never materializes: a uniform granule's frame is read off
  // its record (the record, its tail, or a run's frame).
  Page page(Pfn pfn) const {
    const Page* frames = frames_[pfn / kGranulePages].get();
    return frames != nullptr ? frames[pfn % kGranulePages] : UniformFrame(pfn);
  }

  // Frame 1..511 of a uniform granule (not a run) whose frame 0 is `head`.
  static Page Tail(Page head) {
    head.head = false;
    head.owner = kNoOwner;
    head.owner_slot = 0;
    return head;
  }

  // Whether pfn's granule currently has frames.
  bool Materialized(Pfn pfn) const { return frames_[pfn / kGranulePages] != nullptr; }
  // The first frame after pfn whose state, kind, order and zone may differ
  // from pfn's: pfn + 1 in a granule with frames, the granule's end in a
  // uniform one (whose frames differ only in `head` and owner words; a
  // run's only in owner_slot).
  Pfn NextDistinct(Pfn pfn) const {
    return Materialized(pfn) ? pfn + 1 : (pfn | (kGranulePages - 1)) + 1;
  }

  BlockState block_state(BlockIndex b) const { return blocks_[b]; }
  void set_block_state(BlockIndex b, BlockState s) { blocks_[b] = s; }

  static BlockIndex BlockOf(Pfn pfn) { return pfn / kPagesPerBlock; }
  static Pfn BlockStart(BlockIndex b) { return b * kPagesPerBlock; }

  // Hot-add: every frame of the block becomes offline (-> kPresent), as
  // 64 uniform granules.  Host backing a previous teardown kept is
  // dropped, as the per-page re-initialization always did.
  void InitBlock(BlockIndex b);
  // Hot-remove: tear down memmap entries (-> kHole).  Requires every page
  // to be kOffline.  Frees any frames (O(64)); host backing is untouched
  // (the hypervisor's HotRemoveBlock clears it first).
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

  // Number of pages in the block with the given state (O(1) per uniform
  // granule, a scan of each granule with frames; the tests use it to
  // cross-check the incremental counter below).
  uint64_t CountBlockPages(BlockIndex b, PageState state) const;

  // Incrementally maintained count of allocated pages per block, updated
  // by the zone allocator.  O(1); unplug candidate selection depends on it.
  uint32_t BlockOccupied(BlockIndex b) const { return allocated_per_block_[b]; }
  void AdjustBlockAllocated(Pfn head, int64_t delta_pages) {
    const BlockIndex b = BlockOf(head);
    allocated_per_block_[b] =
        static_cast<uint32_t>(allocated_per_block_[b] + delta_pages);
  }

  // Free-list links of the max-order chunk headed by `head`.
  FreeLink& max_link(Pfn head) { return max_links_[head >> kMaxPageOrder]; }
  const FreeLink& max_link(Pfn head) const { return max_links_[head >> kMaxPageOrder]; }

  // Resolve a folio's head pfn from any of its frames.
  Pfn FolioHead(Pfn pfn) const;

  // Count of blocks in each state (diagnostics).
  uint32_t CountBlocks(BlockState s) const;

  // --- Materialization accounting (the per-host sim-RSS signal) ------------
  static uint64_t GranuleBytes() { return kGranulePages * sizeof(Page); }
  uint32_t materialized_granules() const { return materialized_; }
  uint32_t materialized_peak_granules() const { return materialized_peak_; }
  uint64_t materialized_bytes() const { return materialized_ * GranuleBytes(); }
  uint64_t materialized_peak_bytes() const { return materialized_peak_ * GranuleBytes(); }

 private:
  // The zone writes records directly for its order >= 9 work and its runs.
  friend class Zone;

  // Frames are stamped in place by Materialize (one pass, no
  // value-initialization first); Page is trivially destructible.
  struct FramesDeleter {
    void operator()(Page* frames) const {
      std::allocator<Page>().deallocate(frames, kGranulePages);
    }
  };
  using Frames = std::unique_ptr<Page[], FramesDeleter>;

  // Per-block host backing: one bit per frame, null until first populated.
  struct Backing {
    std::unique_ptr<uint64_t[]> bits;
    uint32_t populated = 0;
  };
  static constexpr uint32_t kBackingWords = kPagesPerBlock / 64;

  // Whether a uniform granule with this record is a run (see above).
  static bool IsRun(const Page& record) {
    return record.state == PageState::kAllocated && record.head && record.order == 0;
  }
  // Frame `pfn` of its uniform granule.  Out of line: inlined, the tail's
  // bit-field write merges into every caller's frame read and stalls its
  // store forwarding.
  Page UniformFrame(Pfn pfn) const;
  // Frame 0 of pfn's granule, writable without materializing: the record
  // of a uniform granule, else frame 0.  Holds an order-9 head's links.
  Page& GranuleHead(Pfn pfn) {
    const uint32_t g = pfn / kGranulePages;
    return frames_[g] != nullptr ? frames_[g][0] : records_[g];
  }
  // Writes the naturally aligned 2^order frames at pfn as `head` and its
  // tails.  At order >= kThpOrder they become uniform granules (each later
  // granule's record is head's tail) and lose their frames; below, the one
  // granule involved materializes.
  void SetChunk(Pfn pfn, uint8_t order, const Page& head);
  // Every frame of block b becomes `frame` (a non-head, ownerless frame).
  void SetBlock(BlockIndex b, const Page& frame);
  // The granule at pfn (aligned) becomes a run headed by `first`, an
  // allocated order-0 head, and loses its frames.
  void SetRun(Pfn pfn, const Page& first);
  Page* Materialize(uint32_t granule);
  void DropFrames(uint32_t granule);

  uint64_t span_pages_ = 0;
  // One record per granule, and its frames while it has any.
  std::vector<Page> records_;
  std::vector<Frames> frames_;
  std::vector<BlockState> blocks_;
  std::vector<uint32_t> allocated_per_block_;
  std::vector<FreeLink> max_links_;
  std::vector<Backing> backing_;
  uint32_t materialized_ = 0;
  uint32_t materialized_peak_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_MEMMAP_H_
