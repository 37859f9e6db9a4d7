// Guest physical page model (the simulator's `struct page`).
//
// A Page describes one 4 KiB guest frame.  Pages form folios (compound
// pages): an order-N folio covers 2^N contiguous, naturally aligned
// frames; only the head carries ownership metadata.  Free buddy chunks use
// the same head/tail scheme plus an intrusive doubly-linked free list
// threaded through the heads.
//
// The same 12-byte struct is also a granule record (memmap.h): each 2 MiB
// granule stores one Page that is its frame 0, and while the granule has
// no frames of its own, frames 1..511 read as that record's tails (the
// record with head=false and owner words {kNoOwner, 0}).
//
// Layout (12 bytes):
//   bytes 0-1   flags: state:3, kind:2, order:4, head:1
//   bytes 2-3   zone_id
//   bytes 4-11  two 32-bit words
// The two words are {owner, owner_slot} on every frame except a listed
// free chunk head below kMaxPageOrder, where they are its free-list
// {next, prev} (link()/set_link()) — for an order-9 head, in its
// granule's record.  Nothing is lost: a free head has no owner (its owner
// words would read {kNoOwner, 0}, and unlinking it in Zone::ListRemove
// writes exactly that back), and no frame but a listed head has a link to
// keep.  Max-order chunk heads keep their links in a MemMap side table.
#ifndef SQUEEZY_MM_PAGE_H_
#define SQUEEZY_MM_PAGE_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace squeezy {

// Page frame number: index of a 4 KiB frame in guest physical space.
using Pfn = uint32_t;
inline constexpr Pfn kInvalidPfn = 0xffffffffu;

// Owner sentinel for pages not owned by a process or file.
inline constexpr int32_t kNoOwner = -1;

enum class PageState : uint8_t {
  kHole,       // No memory behind this frame (not hot-added).
  kFree,       // In a buddy free list of its zone.
  kAllocated,  // Head or tail of an allocated folio.
  kIsolated,   // Removed from the allocator while its block is offlining.
  kOffline,    // Present (hot-added) but not online in any zone.
};

enum class PageKind : uint8_t {
  kNone,
  kAnon,    // Anonymous process memory (movable).
  kFile,    // Page-cache page (movable).
  kKernel,  // Kernel/pinned allocation (unmovable), incl. balloon-held pages.
};

// Buddy free-list linkage of one listed chunk head.
struct FreeLink {
  Pfn next = kInvalidPfn;
  Pfn prev = kInvalidPfn;
};

struct Page {
  // Bit-fields take no default member initializers in C++17.
  Page()
      : state(PageState::kHole), kind(PageKind::kNone), order(0), head(false) {}

  PageState state : 3;
  PageKind kind : 2;
  uint8_t order : 4;          // Folio/chunk order; valid on heads.
  bool head : 1;              // True for folio/chunk head frames.
  int16_t zone_id = -1;       // Owning zone, -1 while offline/hole.
  int32_t owner = kNoOwner;   // Anon: pid.  File: file id.  (heads only)
  uint32_t owner_slot = 0;    // Anon: index in the owner's folio table.
                              // File: page index within the file.

  // Free-list linkage of a listed sub-max-order chunk head, held in the
  // owner words (see above).
  FreeLink link() const { return FreeLink{static_cast<Pfn>(owner), owner_slot}; }
  void set_link(const FreeLink& l) {
    owner = static_cast<int32_t>(l.next);
    owner_slot = l.prev;
  }
  // Restores the owner words of a head leaving its free list.
  void clear_link() {
    owner = kNoOwner;
    owner_slot = 0;
  }
};
static_assert(sizeof(Page) <= 12, "Page must stay 12 bytes per 4 KiB frame");
static_assert(std::is_trivially_copyable_v<Page>, "frames are stamped by copy");

// Sets pages[0..n) (raw or constructed storage) to `value`, copying its
// bytes: an element-wise assignment of the bit-field struct can compile
// to a store-forwarding stall per frame.
inline void FillPages(Page* pages, uint32_t n, const Page& value) {
  for (uint32_t i = 0; i < n; ++i) {
    std::memcpy(static_cast<void*>(pages + i), &value, sizeof(Page));
  }
}

// Frames [first, first + count).
struct PfnRun {
  Pfn first = kInvalidPfn;
  uint32_t count = 0;
};

struct FolioRef {
  Pfn head = kInvalidPfn;
  uint8_t order = 0;

  uint32_t pages() const { return 1u << order; }
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_PAGE_H_
