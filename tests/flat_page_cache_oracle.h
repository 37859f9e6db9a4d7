// Test-only oracle: the page cache as it was before extents — one pfn slot
// per page of every file, kInvalidPfn where the page is not cached.
// mm_page_cache_test.cc fuzzes the production extent cache against it op
// for op; nothing outside tests/ uses it.
#ifndef SQUEEZY_TESTS_FLAT_PAGE_CACHE_ORACLE_H_
#define SQUEEZY_TESTS_FLAT_PAGE_CACHE_ORACLE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/mm/page.h"
#include "src/sim/cost_model.h"

namespace squeezy {
namespace oracle {

class FlatPageCache {
 public:
  int32_t RegisterFile(uint64_t size_bytes) {
    files_.emplace_back(BytesToPages(size_bytes), kInvalidPfn);
    cached_.push_back(0);
    return static_cast<int32_t>(files_.size()) - 1;
  }

  uint64_t FilePages(int32_t file) const { return files_[file].size(); }
  bool Cached(int32_t file, uint64_t page_idx) const {
    return files_[file][page_idx] != kInvalidPfn;
  }
  Pfn Lookup(int32_t file, uint64_t page_idx) const { return files_[file][page_idx]; }

  void Insert(int32_t file, uint64_t page_idx, Pfn pfn) {
    assert(!Cached(file, page_idx));
    files_[file][page_idx] = pfn;
    ++cached_[file];
    ++total_cached_;
  }
  void Relocate(int32_t file, uint64_t page_idx, Pfn new_pfn) {
    assert(Cached(file, page_idx));
    files_[file][page_idx] = new_pfn;
  }
  Pfn Remove(int32_t file, uint64_t page_idx) {
    const Pfn old = files_[file][page_idx];
    assert(old != kInvalidPfn);
    files_[file][page_idx] = kInvalidPfn;
    --cached_[file];
    --total_cached_;
    return old;
  }

  uint64_t cached_pages(int32_t file) const { return cached_[file]; }
  uint64_t total_cached_pages() const { return total_cached_; }

 private:
  std::vector<std::vector<Pfn>> files_;
  std::vector<uint64_t> cached_;
  uint64_t total_cached_ = 0;
};

}  // namespace oracle
}  // namespace squeezy

#endif  // SQUEEZY_TESTS_FLAT_PAGE_CACHE_ORACLE_H_
