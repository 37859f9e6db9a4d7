// Cluster-wide shared dependency-image cache (the TrEnv-X direction).
//
// file_deps_bytes dominates replica footprint (up to 820 MiB for Bert in
// the paper's function set) yet, before this registry, every VM boot
// committed its own copy of the deps region, every cold start paid cold
// backing-store IO for it, and every migration shipped it over the wire —
// even when the destination host already held the identical image.
//
// The DepCache is the fleet's single source of truth for image residency:
//   * residency  — which hosts charge the image's block-rounded region to
//     their commitment book (once per host per image; FaasRuntime pins at
//     VM boot through the DepImageRegistry interface and skips the charge
//     for VMs that join an already-resident image);
//   * population — which hosts actually hold the bytes warm, so a cold
//     start elsewhere fetches them at wire speed (CostModel::
//     dep_fetch_byte_x1000) instead of cold IO (io_byte_x1000), and a
//     migration to a populated destination skips deps_bytes on the wire
//     entirely (priced as CostModel::dep_cache_hit_fixed);
//   * refcounts  — live instances per (host, image); a zero-ref image is
//     reclaimable: on host drain or under memory pressure the residency
//     is released and its commitment flows back through the host's
//     active ReclaimDriver, conserving the fleet book.
//
// Only drivers with SharedDepsSupported() participate (Squeezy — its
// shared read-only partition already models exactly this payload);
// Static/VirtioMem hosts never touch the registry and stay bit-identical.
//
// Modeling approximation: host frames are deduplicated through the
// population flag — once a host is marked populated, sibling VMs adopt
// the image without populating new frames.  Two sibling VMs cold-starting
// in the sub-second window between an image (re-)charge and the first
// instance-idle population signal can each fault their own copy; the
// block-rounded residency charge absorbs this in practice.
#ifndef SQUEEZY_CLUSTER_DEP_CACHE_H_
#define SQUEEZY_CLUSTER_DEP_CACHE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/faas/dep_registry.h"

namespace squeezy {

// Fleet-level registry counters (benches report these as headline
// metrics; tests assert their conservation).
struct DepCacheStats {
  uint64_t images = 0;            // Distinct images interned.
  uint64_t pins = 0;              // PinImage calls (VM boots + re-charges).
  uint64_t boot_dedup_hits = 0;   // Pins that joined a resident image.
  uint64_t boot_bytes_saved = 0;  // Commitment never charged thanks to dedup.
  uint64_t evictions = 0;         // Residencies released (drain/pressure).
  uint64_t evicted_bytes = 0;     // Commitment flowed back through drivers.
  uint64_t wire_hits = 0;         // Migrations that skipped deps on the wire.
  uint64_t wire_bytes_saved = 0;  // deps_bytes that never crossed the wire.
};

// Lock discipline: the cache self-locks (`mu_`) — it is the cross-host
// shared state every host's cold starts and migrations read.  Methods
// never call out of the class while holding `mu_`, so the lock
// is a leaf in the cluster ordering (see src/base/mutex.h).
class DepCache : public DepImageRegistry {
 public:
  explicit DepCache(size_t nr_hosts);

  // --- DepImageRegistry ------------------------------------------------------------
  DepImageId Intern(const std::string& key, uint64_t region_bytes) override
      SQZ_EXCLUDES(mu_);
  uint64_t region_bytes(DepImageId img) const override SQZ_EXCLUDES(mu_);
  bool PinImage(size_t host, DepImageId img) override SQZ_EXCLUDES(mu_);
  uint64_t EvictImage(size_t host, DepImageId img) override SQZ_EXCLUDES(mu_);
  bool Resident(size_t host, DepImageId img) const override SQZ_EXCLUDES(mu_);
  void AddRef(size_t host, DepImageId img) override SQZ_EXCLUDES(mu_);
  void ReleaseRef(size_t host, DepImageId img) override SQZ_EXCLUDES(mu_);
  uint64_t RefCount(size_t host, DepImageId img) const override SQZ_EXCLUDES(mu_);
  void MarkPopulated(size_t host, DepImageId img) override SQZ_EXCLUDES(mu_);
  bool Populated(size_t host, DepImageId img) const override SQZ_EXCLUDES(mu_);
  bool PopulatedElsewhere(size_t host, DepImageId img) const override
      SQZ_EXCLUDES(mu_);

  // --- Fleet-side bookkeeping --------------------------------------------------------
  // A migration to a populated destination skipped `bytes` on the wire.
  void RecordWireHit(uint64_t bytes) SQZ_EXCLUDES(mu_);

  size_t image_count() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return images_.size();
  }
  size_t host_count() const { return nr_hosts_; }
  // Commitment currently charged for resident images on `host` (the
  // host's book at quiescence is boot bases + plugged units + this).
  uint64_t charged_bytes(size_t host) const SQZ_EXCLUDES(mu_);
  // (key, region_bytes) of every image resident on `host`, in key order.
  // Sim-visible dump path (stats tables, bench rows): iteration runs over
  // the ordered key index, NEVER a hash table, so the output is a pure
  // function of the inserted set — insertion order cannot leak into it
  // (locked by tests/determinism_order_test.cc).
  std::vector<std::pair<std::string, uint64_t>> ChargedImages(size_t host) const
      SQZ_EXCLUDES(mu_);
  DepCacheStats stats() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  struct Residency {
    bool resident = false;
    bool populated = false;
    uint64_t refs = 0;
  };
  struct Image {
    std::string key;
    uint64_t region_bytes = 0;
  };

  Residency& at(size_t host, DepImageId img) SQZ_REQUIRES(mu_);
  const Residency& at(size_t host, DepImageId img) const SQZ_REQUIRES(mu_);

  const size_t nr_hosts_;  // Set at construction, immutable after.
  mutable Mutex mu_;
  std::vector<Image> images_ SQZ_GUARDED_BY(mu_);
  // Ordered key index: Intern() is lookup-dominated and off the hot path,
  // and an ordered map makes every future key iteration (dumps, eviction
  // sweeps) deterministic BY CONSTRUCTION instead of by audit.
  std::map<std::string, DepImageId> by_key_ SQZ_GUARDED_BY(mu_);
  // hosts_[host][img] — images are few (one per function spec), so a
  // dense per-host vector keeps lookups allocation-free on the hot path.
  std::vector<std::vector<Residency>> hosts_ SQZ_GUARDED_BY(mu_);
  DepCacheStats stats_ SQZ_GUARDED_BY(mu_);
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_DEP_CACHE_H_
