// Guest page cache: file -> resident page mapping, kept as extents.
//
// File-backed memory (container rootfs, language runtimes, model files) is
// faulted in once and shared by every instance that maps it.  Under
// Squeezy these pages live in the dedicated shared partition; in a vanilla
// VM they live in ZONE_MOVABLE interleaved with anonymous memory.
//
// Such files are read as large contiguous spans, so a file's cached pages
// are stored as sorted extents {first page index, count, first pfn}: file
// pages [idx, idx + count) sit in frames [pfn, pfn + count).  The extents
// are disjoint, non-empty and maximal — two extents that abut in both
// index and pfn are always one — so the list is a function of the mapping
// alone, whatever order it was built in.  Registering a file allocates
// nothing per page; Cached/Lookup binary-search the extents; Remove and
// Relocate split one extent; a fault adds all of its runs in one merge
// pass (AddRuns), so a sparse cache never costs mid-vector inserts per
// page.
#ifndef SQUEEZY_MM_PAGE_CACHE_H_
#define SQUEEZY_MM_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {

class PageCache {
 public:
  // File pages [idx, idx + count) in frames [pfn, pfn + count).
  struct Extent {
    uint32_t idx = 0;
    uint32_t count = 0;
    Pfn pfn = kInvalidPfn;

    uint32_t end() const { return idx + count; }
  };

  // Registers a file of `size_bytes`; returns its file id.
  int32_t RegisterFile(std::string name, uint64_t size_bytes);

  uint64_t FilePages(int32_t file) const { return files_[file].pages; }
  uint64_t file_size(int32_t file) const { return files_[file].size_bytes; }
  const std::string& file_name(int32_t file) const { return files_[file].name; }
  size_t file_count() const { return files_.size(); }

  bool Cached(int32_t file, uint64_t page_idx) const;
  Pfn Lookup(int32_t file, uint64_t page_idx) const;
  void Insert(int32_t file, uint64_t page_idx, Pfn pfn);
  // Migration callback: page `page_idx` of `file` moved to `new_pfn`.
  void Relocate(int32_t file, uint64_t page_idx, Pfn new_pfn);
  // Forgets the mapping (caller frees the page).  Returns the old pfn.
  Pfn Remove(int32_t file, uint64_t page_idx);

  // The file's extents in index order.
  const std::vector<Extent>& extents(int32_t file) const { return files_[file].extents; }
  // Whether pages [0, pages) are all cached, in O(1): the whole file is,
  // or its first extent covers the prefix.
  bool PrefixCached(int32_t file, uint64_t pages) const;
  // Caches newly faulted pages: `runs` in index order, disjoint from the
  // cache and from each other.  One merge pass over the file's extents.
  void AddRuns(int32_t file, const std::vector<Extent>& runs);
  // Forgets every page of the file (the caller frees them) and returns
  // its extents, in index order.
  std::vector<Extent> RemoveAll(int32_t file);

  uint64_t cached_pages(int32_t file) const { return files_[file].cached; }
  uint64_t total_cached_pages() const { return total_cached_; }
  uint64_t total_cached_bytes() const { return PagesToBytes(total_cached_); }

  // --- Backing source (cross-host shared dependency cache) -------------------
  // Per-file resolver of the cold-miss backing cost in ns per 1000 bytes;
  // < 0 means the cost model's backing-store IO rate.  The FaaS runtime
  // installs one on dependency files that answers from the live registry
  // — the network rate exactly while a peer host holds the image warm —
  // so the charge can never go stale between admission and fault time.
  void SetBackingResolver(int32_t file, std::function<DurationNs()> resolver) {
    files_[file].backing_resolver = std::move(resolver);
  }
  DurationNs backing_cost(int32_t file) const {
    const File& f = files_[file];
    return f.backing_resolver ? f.backing_resolver() : -1;
  }
  // Cold-miss read accounting, split by source (disk IO vs. peer fetch vs.
  // pages adopted from a host-resident image without any read at all vs.
  // pages bulk-prefetched out of a recorded snapshot working set).
  void CountDiskRead(int32_t file, uint64_t bytes) {
    files_[file].disk_read_bytes += bytes;
  }
  void CountRemoteRead(int32_t file, uint64_t bytes) {
    files_[file].remote_read_bytes += bytes;
  }
  void CountAdopted(int32_t file, uint64_t bytes) { files_[file].adopted_bytes += bytes; }
  void CountRestored(int32_t file, uint64_t bytes) {
    files_[file].restored_bytes += bytes;
  }
  uint64_t disk_read_bytes(int32_t file) const { return files_[file].disk_read_bytes; }
  uint64_t remote_read_bytes(int32_t file) const {
    return files_[file].remote_read_bytes;
  }
  uint64_t adopted_bytes(int32_t file) const { return files_[file].adopted_bytes; }
  uint64_t restored_bytes(int32_t file) const { return files_[file].restored_bytes; }

 private:
  struct File {
    std::string name;
    uint64_t size_bytes = 0;
    uint64_t pages = 0;
    uint64_t cached = 0;
    std::function<DurationNs()> backing_resolver;  // Unset: disk IO default.
    uint64_t disk_read_bytes = 0;
    uint64_t remote_read_bytes = 0;
    uint64_t adopted_bytes = 0;
    uint64_t restored_bytes = 0;
    std::vector<Extent> extents;  // Sorted, disjoint, maximal.
  };

  // The extent holding page_idx, or nullptr.
  const Extent* Find(const File& f, uint64_t page_idx) const;

  std::vector<File> files_;
  uint64_t total_cached_ = 0;
};

}  // namespace squeezy

#endif  // SQUEEZY_MM_PAGE_CACHE_H_
