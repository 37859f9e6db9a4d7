// Test helpers over MemMap's public reads.
#ifndef SQUEEZY_TESTS_MEMMAP_TEST_UTIL_H_
#define SQUEEZY_TESTS_MEMMAP_TEST_UTIL_H_

#include "src/mm/memmap.h"

namespace squeezy {

// Whether any granule of block b has frames.
inline bool BlockMaterialized(const MemMap& m, BlockIndex b) {
  const Pfn start = MemMap::BlockStart(b);
  for (Pfn pfn = start; pfn < start + kPagesPerBlock; pfn += kGranulePages) {
    if (m.Materialized(pfn)) {
      return true;
    }
  }
  return false;
}

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_MEMMAP_TEST_UTIL_H_
