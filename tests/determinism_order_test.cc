// Insertion-order invariance of the shared registries' sim-visible output
// (the determinism lock behind the ordered by_key_ indexes).
//
// DepCache and SnapshotStore key their images by string; the key index is
// an ORDERED map precisely so that every dump path (ChargedImages,
// RecordedKeys, the BenchJson rows built from them) is a pure function of
// the inserted SET — never of insertion order, which varies with host
// count and placement policy.  This test drives both registries through
// every permutation of a key set, applying a fixed per-key operation
// script, and asserts that stats, dump output, and the BenchJson file
// bytes are identical across permutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/dep_cache.h"
#include "src/sim/cost_model.h"
#include "src/snapshot/snapshot_store.h"

namespace squeezy {
namespace {

constexpr size_t kHosts = 3;

// Key set: deliberately NOT in insertion-friendly order anywhere.
const std::vector<std::string> kKeys = {"llm-bert", "alu", "img-resize", "web"};

// --- DepCache ---------------------------------------------------------------

// Applies a fixed operation script for key index `k` (an index into the
// CANONICAL kKeys order, so the logical operation set is the same no
// matter which order the keys were interned in).
void DriveDepKey(DepCache* cache, DepImageId img, size_t k) {
  const size_t h0 = k % kHosts;
  const size_t h1 = (k + 1) % kHosts;
  cache->PinImage(h0, img);
  cache->AddRef(h0, img);
  cache->AddRef(h0, img);
  cache->PinImage(h0, img);  // Second pin on h0: boot dedup hit.
  cache->PinImage(h1, img);
  if (k % 2 == 0) {
    cache->MarkPopulated(h0, img);
    cache->RecordWireHit(MiB(16) * (k + 1));
  }
  if (k % 3 == 0) {
    cache->EvictImage(h1, img);
  }
  cache->ReleaseRef(h0, img);
}

struct DepOutcome {
  DepCacheStats stats;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> charged;
  std::vector<uint64_t> charged_bytes;
  std::string json;

  bool operator==(const DepOutcome& o) const {
    return stats.images == o.stats.images && stats.pins == o.stats.pins &&
           stats.boot_dedup_hits == o.stats.boot_dedup_hits &&
           stats.boot_bytes_saved == o.stats.boot_bytes_saved &&
           stats.evictions == o.stats.evictions &&
           stats.evicted_bytes == o.stats.evicted_bytes &&
           stats.wire_hits == o.stats.wire_hits &&
           stats.wire_bytes_saved == o.stats.wire_bytes_saved &&
           charged == o.charged && charged_bytes == o.charged_bytes &&
           json == o.json;
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

// Runs one full scenario with keys interned in `order` (indices into
// kKeys), then captures every sim-visible output.
DepOutcome RunDepScenario(const std::vector<size_t>& order) {
  DepCache cache(kHosts);
  std::vector<DepImageId> ids(kKeys.size(), kNoDepImage);
  for (const size_t k : order) {
    ids[k] = cache.Intern(kKeys[k], MiB(64) * (k + 1));
  }
  for (const size_t k : order) {
    DriveDepKey(&cache, ids[k], k);
  }

  DepOutcome out;
  out.stats = cache.stats();
  BenchJson json("determinism_order_fixture");
  json.Metric("images", static_cast<uint64_t>(cache.image_count()));
  json.SetColumns({"host", "key", "region_bytes"});
  for (size_t h = 0; h < kHosts; ++h) {
    out.charged.push_back(cache.ChargedImages(h));
    out.charged_bytes.push_back(cache.charged_bytes(h));
    for (const auto& [key, bytes] : out.charged.back()) {
      json.AddRow({std::to_string(h), key, std::to_string(bytes)});
    }
  }
  const std::string path = json.Write();
  EXPECT_FALSE(path.empty());
  out.json = ReadFile(path);
  EXPECT_FALSE(out.json.empty());
  return out;
}

TEST(DeterminismOrderTest, DepCacheOutputInvariantUnderInsertionOrder) {
  std::vector<size_t> order(kKeys.size());
  std::iota(order.begin(), order.end(), 0);
  const DepOutcome baseline = RunDepScenario(order);

  // Sanity: the scenario actually exercises the interesting paths.
  EXPECT_EQ(baseline.stats.images, kKeys.size());
  EXPECT_GT(baseline.stats.boot_dedup_hits, 0u);
  EXPECT_GT(baseline.stats.evictions, 0u);
  EXPECT_GT(baseline.stats.wire_hits, 0u);

  size_t permutations = 0;
  while (std::next_permutation(order.begin(), order.end())) {
    const DepOutcome got = RunDepScenario(order);
    ASSERT_TRUE(got == baseline)
        << "DepCache output depends on insertion order (permutation "
        << permutations << ")";
    ++permutations;
  }
  EXPECT_EQ(permutations, 23u);  // 4! - 1 non-identity orders.
}

// --- SnapshotStore ----------------------------------------------------------

void DriveSnapKey(SnapshotStore* store, SnapshotId snap, size_t k) {
  SnapshotImage img;
  img.working_set_pages = 1000 * (k + 1);
  img.deps_pages = 200 * (k + 1);
  img.heap_bytes = MiB(8) * (k + 1);
  store->Record(snap, img);
  store->NoteRestore(snap, MiB(4) * (k + 1), k % 2 == 0 ? MiB(1) : 0);
  if (k % 3 == 1) {
    // Tail far above the staleness threshold: invalidates, then
    // re-records with a grown heap.
    store->NoteTail(snap, img.heap_bytes);
    SnapshotImage regrown = img;
    regrown.heap_bytes += MiB(2);
    store->Record(snap, regrown);
  } else {
    store->NoteTail(snap, 0);
  }
}

struct SnapOutcome {
  SnapshotStats stats;
  std::vector<std::string> keys;

  bool operator==(const SnapOutcome& o) const {
    return stats.functions == o.stats.functions &&
           stats.recordings == o.stats.recordings &&
           stats.re_recordings == o.stats.re_recordings &&
           stats.invalidations == o.stats.invalidations &&
           stats.restores == o.stats.restores &&
           stats.prefetch_bytes == o.stats.prefetch_bytes &&
           stats.deps_bytes_zeroed == o.stats.deps_bytes_zeroed &&
           stats.tail_bytes == o.stats.tail_bytes &&
           stats.restored_heap_bytes == o.stats.restored_heap_bytes &&
           keys == o.keys;
  }
};

SnapOutcome RunSnapScenario(const std::vector<size_t>& order) {
  SnapshotStore store{SnapshotStoreConfig{}};
  std::vector<SnapshotId> ids(kKeys.size(), kNoSnapshot);
  for (const size_t k : order) {
    ids[k] = store.Intern(kKeys[k]);
  }
  for (const size_t k : order) {
    DriveSnapKey(&store, ids[k], k);
  }
  SnapOutcome out;
  out.stats = store.stats();
  out.keys = store.RecordedKeys();
  return out;
}

TEST(DeterminismOrderTest, SnapshotStoreOutputInvariantUnderInsertionOrder) {
  std::vector<size_t> order(kKeys.size());
  std::iota(order.begin(), order.end(), 0);
  const SnapOutcome baseline = RunSnapScenario(order);

  EXPECT_EQ(baseline.stats.functions, kKeys.size());
  EXPECT_GT(baseline.stats.invalidations, 0u);
  EXPECT_GT(baseline.stats.re_recordings, 0u);
  // Every key ends with a valid recording, listed in key order.
  std::vector<std::string> sorted_keys = kKeys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  EXPECT_EQ(baseline.keys, sorted_keys);

  size_t permutations = 0;
  while (std::next_permutation(order.begin(), order.end())) {
    const SnapOutcome got = RunSnapScenario(order);
    ASSERT_TRUE(got == baseline)
        << "SnapshotStore output depends on insertion order (permutation "
        << permutations << ")";
    ++permutations;
  }
  EXPECT_EQ(permutations, 23u);
}

}  // namespace
}  // namespace squeezy
