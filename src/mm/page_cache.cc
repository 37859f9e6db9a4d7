#include "src/mm/page_cache.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace squeezy {
namespace {

// Whether extent b continues a in both page index and pfn.
bool Abuts(const PageCache::Extent& a, const PageCache::Extent& b) {
  return a.end() == b.idx && a.pfn + a.count == b.pfn;
}

}  // namespace

int32_t PageCache::RegisterFile(std::string name, uint64_t size_bytes) {
  File f;
  f.name = std::move(name);
  f.size_bytes = size_bytes;
  f.pages = BytesToPages(size_bytes);
  files_.push_back(std::move(f));
  return static_cast<int32_t>(files_.size()) - 1;
}

const PageCache::Extent* PageCache::Find(const File& f, uint64_t page_idx) const {
  const auto next =
      std::upper_bound(f.extents.begin(), f.extents.end(), page_idx,
                       [](uint64_t idx, const Extent& e) { return idx < e.idx; });
  if (next == f.extents.begin() || std::prev(next)->end() <= page_idx) {
    return nullptr;
  }
  return &*std::prev(next);
}

bool PageCache::Cached(int32_t file, uint64_t page_idx) const {
  return Find(files_[static_cast<size_t>(file)], page_idx) != nullptr;
}

Pfn PageCache::Lookup(int32_t file, uint64_t page_idx) const {
  const Extent* e = Find(files_[static_cast<size_t>(file)], page_idx);
  return e != nullptr ? e->pfn + static_cast<Pfn>(page_idx - e->idx) : kInvalidPfn;
}

bool PageCache::PrefixCached(int32_t file, uint64_t pages) const {
  const File& f = files_[static_cast<size_t>(file)];
  return f.cached == f.pages ||
         (!f.extents.empty() && f.extents[0].idx == 0 && f.extents[0].count >= pages);
}

void PageCache::Insert(int32_t file, uint64_t page_idx, Pfn pfn) {
  File& f = files_[static_cast<size_t>(file)];
  const Extent page{static_cast<uint32_t>(page_idx), 1, pfn};
  auto next = std::upper_bound(f.extents.begin(), f.extents.end(), page.idx,
                               [](uint32_t idx, const Extent& e) { return idx < e.idx; });
  const auto prev = next == f.extents.begin() ? f.extents.end() : std::prev(next);
  assert(prev == f.extents.end() || prev->end() <= page.idx);
  assert(next == f.extents.end() || next->idx > page.idx);
  const bool joins_prev = prev != f.extents.end() && Abuts(*prev, page);
  const bool joins_next = next != f.extents.end() && Abuts(page, *next);
  if (joins_prev && joins_next) {
    prev->count += 1 + next->count;
    f.extents.erase(next);
  } else if (joins_prev) {
    ++prev->count;
  } else if (joins_next) {
    --next->idx;
    --next->pfn;
    ++next->count;
  } else {
    f.extents.insert(next, page);
  }
  ++f.cached;
  ++total_cached_;
}

void PageCache::AddRuns(int32_t file, const std::vector<Extent>& runs) {
  if (runs.empty()) {
    return;
  }
  File& f = files_[static_cast<size_t>(file)];
  std::vector<Extent> merged;
  merged.reserve(f.extents.size() + runs.size());
  auto append = [&merged](const Extent& e) {
    if (!merged.empty() && Abuts(merged.back(), e)) {
      merged.back().count += e.count;
    } else {
      merged.push_back(e);
    }
  };
  uint64_t added = 0;
  auto old = f.extents.begin();
  for (const Extent& run : runs) {
    assert(run.count > 0);
    while (old != f.extents.end() && old->idx < run.idx) {
      append(*old++);
    }
    assert(merged.empty() || merged.back().end() <= run.idx);
    assert(old == f.extents.end() || run.end() <= old->idx);
    append(run);
    added += run.count;
  }
  while (old != f.extents.end()) {
    append(*old++);
  }
  f.extents = std::move(merged);
  f.cached += added;
  total_cached_ += added;
}

void PageCache::Relocate(int32_t file, uint64_t page_idx, Pfn new_pfn) {
  Remove(file, page_idx);
  Insert(file, page_idx, new_pfn);
}

Pfn PageCache::Remove(int32_t file, uint64_t page_idx) {
  File& f = files_[static_cast<size_t>(file)];
  const Extent* found = Find(f, page_idx);
  assert(found != nullptr);
  const auto it = f.extents.begin() + (found - f.extents.data());
  const Extent e = *it;
  const uint32_t off = static_cast<uint32_t>(page_idx) - e.idx;
  const Pfn old = e.pfn + off;
  if (e.count == 1) {
    f.extents.erase(it);
  } else if (off == 0) {
    *it = Extent{e.idx + 1, e.count - 1, e.pfn + 1};
  } else if (off == e.count - 1) {
    --it->count;
  } else {  // Split: the head keeps its slot, the tail follows it.
    it->count = off;
    f.extents.insert(std::next(it), Extent{e.idx + off + 1, e.count - off - 1, old + 1});
  }
  assert(f.cached > 0 && total_cached_ > 0);
  --f.cached;
  --total_cached_;
  return old;
}

std::vector<PageCache::Extent> PageCache::RemoveAll(int32_t file) {
  File& f = files_[static_cast<size_t>(file)];
  assert(total_cached_ >= f.cached);
  total_cached_ -= f.cached;
  f.cached = 0;
  return std::exchange(f.extents, {});
}

}  // namespace squeezy
