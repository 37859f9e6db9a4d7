// Memory zones with a per-zone binary buddy allocator.
//
// Mirrors the Linux design the paper builds on: hot-plugged memory is
// onlined into ZONE_MOVABLE (or, under Squeezy, into a per-partition
// zone); the buddy allocator serves folios of order 0..kMaxPageOrder from
// intrusive per-order free lists.  The max-order list threads through the
// MemMap's link side table; the order-9 list through the owner words of
// its heads' granule records; smaller orders through the owner words of
// their free head frames (page.h, memmap.h).
//
// Granules.  Work at order >= kThpOrder writes granule records, not
// frames: Alloc and Free/FreeChunk of a THP or max-order folio,
// FreeIntoIsolation of one, and the isolation or retirement of such a
// chunk each write one or two records (and free the granule's frames if
// it had any).  Below order 9 the zone materializes the one granule
// involved and runs the per-page code; AllocPages writes a granule it
// takes whole as one run record (memmap.h) and materializes only a
// granule it takes in part.  So onlining, isolating and retiring a block
// whose chunks were never split costs O(64) record writes, and the range
// walks (IsolateFreeRange, UndoIsolation, migration's scan) step over a
// uniform granule in one move.  The free-list order and the shuffle RNG's
// draws are exactly those of the per-page allocator.  Every read a zone
// makes without intending to write goes through the memmap's const
// accessor, so inspection (CheckFreeLists, ShuffleFreeLists, coalescing
// probes) never materializes anything.
//
// Run allocation.  AllocPages hands out n order-0 pages in one call with
// exactly the picks, frame states, free-list order and counters of n
// Alloc(0) calls: it consumes whole chunks and splits at most one, instead
// of splitting a chunk down order by order for every page.  Page i's
// owner slot is first_slot + i (a granule taken whole holds its 512 slots
// in one run record), and each chunk's taken frames come back as one
// (pfn, count) run, so a caller that keeps runs (the page cache) never
// touches a per-page array.
//
// The offline path uses the isolation primitives: free pages in a range
// are pulled out of the free lists (kIsolated) so concurrent allocations
// cannot land in a block that is going away, occupied folios are migrated
// out, and finally the fully-isolated range is retired (kOffline).
#ifndef SQUEEZY_MM_ZONE_H_
#define SQUEEZY_MM_ZONE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/mm/memmap.h"
#include "src/mm/page.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {

enum class ZoneType : uint8_t {
  kNormal,          // Boot memory; kernel + unmovable allocations.
  kMovable,         // ZONE_MOVABLE: user/file pages, hot(un)pluggable.
  kSqueezyPrivate,  // One Squeezy partition (anonymous memory of one instance).
  kSqueezyShared,   // The per-VM shared Squeezy partition (file mappings).
};

const char* ZoneTypeName(ZoneType t);

class Zone {
 public:
  // `shuffle_rng` (optional, not owned) randomizes free-list insertion to
  // emulate the steady-state scatter of a long-running kernel allocator
  // (Linux CONFIG_SHUFFLE_PAGE_ALLOCATOR + allocation churn).  Without it
  // the allocator hands out contiguous ascending ranges.
  Zone(int16_t id, ZoneType type, std::string name, MemMap* memmap,
       Rng* shuffle_rng = nullptr);

  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

  int16_t id() const { return id_; }
  ZoneType type() const { return type_; }
  const std::string& name() const { return name_; }

  // --- Online/offline -------------------------------------------------------
  // Attributes an offline (hot-added) page range to this zone and frees it
  // into the buddy.  Range must be order-0-aligned; online uses whole blocks.
  void AddFreeRange(Pfn start, uint64_t npages);

  // Removes every *free* page in the range from the buddy (-> kIsolated).
  // Returns the number of pages isolated.
  uint64_t IsolateFreeRange(Pfn start, uint64_t npages);

  // Returns isolated pages in the range to the buddy (offline abort).
  void UndoIsolation(Pfn start, uint64_t npages);

  // Retires fully-isolated whole blocks from the zone (-> uniform kOffline
  // granules, zone stats shrink).  start and npages are block-aligned, and every page
  // in the range must be kIsolated.
  void RetireRange(Pfn start, uint64_t npages);

  // --- Allocation ------------------------------------------------------------
  // Allocates a 2^order folio.  Returns the head pfn or kInvalidPfn when the
  // zone cannot satisfy the request.
  Pfn Alloc(uint8_t order, PageKind kind, int32_t owner, uint32_t owner_slot);

  // Allocates n order-0 pages, page i owned by (owner, first_slot + i),
  // and appends them to `runs` in allocation order, one run per free chunk
  // they came from.  Returns how many it allocated, fewer than n only when
  // the zone ran out.  Equivalent, frame for frame and list for list, to
  // n Alloc(0, kind, owner, first_slot + i) calls.
  uint64_t AllocPages(uint64_t n, PageKind kind, int32_t owner, uint32_t first_slot,
                      std::vector<PfnRun>* runs);

  // Frees an allocated folio (by head pfn), coalescing with buddies.
  void Free(Pfn head);

  // Frees an allocated folio whose frames lie in an isolating range: the
  // frames go straight to kIsolated instead of back to the free lists
  // (migration source path).
  void FreeIntoIsolation(Pfn head);

  // --- Stats ------------------------------------------------------------------
  uint64_t free_pages() const { return free_pages_; }
  uint64_t present_pages() const { return present_pages_; }
  uint64_t managed_pages() const { return managed_pages_; }
  uint64_t allocated_pages() const { return managed_pages_ - free_pages_; }
  uint64_t free_chunks(uint8_t order) const { return areas_[order].nr_free; }
  uint64_t free_bytes() const { return PagesToBytes(free_pages_); }

  // Rebuilds every free list in a random order.  Models the steady-state
  // scatter of a long-running kernel (boot-time onlining inserts blocks
  // sequentially; churn and SHUFFLE_PAGE_ALLOCATOR randomize over time).
  // Benches call this once after the boot-time plug of a large region.
  void ShuffleFreeLists(Rng& rng);

  // Debug invariant check: walks the free lists and verifies linkage,
  // alignment, state and the per-order counters.  O(free chunks); reads
  // only, so it materializes nothing.
  bool CheckFreeLists() const;

 private:
  struct FreeArea {
    Pfn head = kInvalidPfn;
    Pfn tail = kInvalidPfn;
    uint64_t nr_free = 0;  // Chunks (not pages) in this list.
  };

  // The free-list links of a listed chunk head of `order`.
  FreeLink LinkAt(uint8_t order, Pfn pfn) const;
  // The frame that holds a listed head's links below kMaxPageOrder.
  Page& HeadFrame(uint8_t order, Pfn pfn);
  void SetLink(uint8_t order, Pfn pfn, const FreeLink& link);
  void SetNext(uint8_t order, Pfn pfn, Pfn next);
  void SetPrev(uint8_t order, Pfn pfn, Pfn prev);
  const MemMap& map() const { return *memmap_; }

  void ListPushFront(uint8_t order, Pfn pfn);
  void ListPushBack(uint8_t order, Pfn pfn);
  void ListRemove(uint8_t order, Pfn pfn);
  Pfn ListPopFront(uint8_t order);

  // Frees a chunk (all frames currently not in any list) with coalescing.
  // `fresh` chunks (newly onlined) queue at the tail; runtime frees at the
  // head (hot reuse), unless the shuffle RNG randomizes the side.
  void FreeChunk(Pfn pfn, uint8_t order, bool fresh = false);
  // Queues a stamped free chunk per FreeChunk's insertion policy.
  void InsertFreeChunk(Pfn pfn, uint8_t order, bool fresh);
  // Marks the frames of a chunk as a free chunk (head/tails).
  void StampFreeChunk(Pfn pfn, uint8_t order);
  // An isolated frame of this zone.
  Page IsolatedFrame() const;
  // Whether p heads a free chunk of `order` in this zone.
  bool IsFreeHead(const Page& p, uint8_t order) const;

  int16_t id_;
  ZoneType type_;
  std::string name_;
  MemMap* memmap_;
  Rng* shuffle_rng_;

  std::array<FreeArea, kMaxPageOrder + 1> areas_{};
  uint64_t free_pages_ = 0;
  uint64_t present_pages_ = 0;
  uint64_t managed_pages_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_ZONE_H_
