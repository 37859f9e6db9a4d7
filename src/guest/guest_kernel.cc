#include "src/guest/guest_kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace squeezy {
namespace {

// The page-cache misses of one file fault, as the runs of frames they got
// in index order, plus where the fault stopped.
struct FileMisses {
  std::vector<PageCache::Extent> runs;
  uint64_t allocated = 0;
  uint64_t reached = 0;  // The fault's end, or the first miss left without a frame.
  bool oom = false;
};

// Allocates frames for file_id's uncached pages below `pages`, a hole of
// the cache at a time in index order, and adds them to the page cache:
// from `zone` while it lasts, then from `fallback` (if any).  Each hole
// takes exactly the frames the per-page fault loop would pick, as runs;
// the first miss that gets no frame ends the fault there.
FileMisses FaultFileMisses(PageCache& cache, int32_t file_id, uint64_t pages, Zone* zone,
                           Zone* fallback) {
  FileMisses m;
  m.reached = pages;
  std::vector<PfnRun> got;
  // Allocates hole [first, first + n).
  auto fill = [&](uint64_t first, uint64_t n) {
    got.clear();
    const uint32_t slot = static_cast<uint32_t>(first);
    uint64_t taken = zone->AllocPages(n, PageKind::kFile, file_id, slot, &got);
    if (taken < n && fallback != nullptr) {
      taken += fallback->AllocPages(n - taken, PageKind::kFile, file_id,
                                    slot + static_cast<uint32_t>(taken), &got);
    }
    uint32_t idx = slot;
    for (const PfnRun& run : got) {
      m.runs.push_back(PageCache::Extent{idx, run.count, run.first});
      idx += run.count;
    }
    m.allocated += taken;
    if (taken < n) {
      m.reached = first + taken;
      m.oom = true;
    }
  };
  uint64_t next = 0;  // The end of the cached extents walked so far.
  for (const PageCache::Extent& e : cache.extents(file_id)) {
    if (e.idx >= pages || m.oom) {
      break;
    }
    if (next < e.idx) {
      fill(next, e.idx - next);
    }
    next = e.end();
  }
  if (!m.oom && next < pages) {
    fill(next, pages - next);
  }
  cache.AddRuns(file_id, m.runs);
  return m;
}

// Calls fn(first, count) for each maximal run of consecutive frames among
// the allocated misses, in allocation order.
template <typename Fn>
void ForEachRun(const FileMisses& m, Fn&& fn) {
  for (size_t i = 0; i < m.runs.size();) {
    const Pfn first = m.runs[i].pfn;
    uint32_t count = m.runs[i].count;
    for (++i; i < m.runs.size() && m.runs[i].pfn == first + count; ++i) {
      count += m.runs[i].count;
    }
    fn(first, count);
  }
}

}  // namespace

GuestKernel::GuestKernel(const GuestConfig& config, Hypervisor* hv, CpuAccountant* cpu)
    : config_(config), hv_(hv), cpu_(cpu), rng_(config.seed) {
  assert(hv_ != nullptr);
  assert(config_.base_memory % kMemoryBlockBytes == 0 &&
         "base memory must be block-aligned");
  assert(config_.hotplug_region % kMemoryBlockBytes == 0 &&
         "hotplug region must be block-aligned");

  vm_ = hv_->RegisterVm(config_.name, config_.vcpus);
  memmap_ = std::make_unique<MemMap>(config_.base_memory + config_.hotplug_region);

  Rng* shuffle = config_.shuffle_allocator ? &rng_ : nullptr;
  zones_.push_back(
      std::make_unique<Zone>(0, ZoneType::kNormal, "Normal", memmap_.get(), shuffle));
  normal_zone_ = zones_.back().get();
  zones_.push_back(
      std::make_unique<Zone>(1, ZoneType::kMovable, "Movable", memmap_.get(), shuffle));
  movable_zone_ = zones_.back().get();
  file_zone_ = movable_zone_;

  // Boot RAM comes online into ZONE_NORMAL without the hotplug pipeline.
  const uint32_t base_blocks =
      static_cast<uint32_t>(config_.base_memory / kMemoryBlockBytes);
  for (BlockIndex b = 0; b < base_blocks; ++b) {
    memmap_->InitBlock(b);
    normal_zone_->AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    memmap_->set_block_state(b, BlockState::kOnline);
  }
  hotplug_first_block_ = base_blocks;
  hotplug_nr_blocks_ = static_cast<uint32_t>(config_.hotplug_region / kMemoryBlockBytes);

  hotplug_ =
      std::make_unique<HotplugManager>(memmap_.get(), &hv_->cost(), hv_, vm_, this);

  VirtioMemConfig vcfg;
  vcfg.first_block = hotplug_first_block_;
  vcfg.nr_blocks = hotplug_nr_blocks_;
  vcfg.unplug_timeout = config_.unplug_timeout;
  vcfg.guest_thread = config_.name + "/virtio_mem-guest";
  vcfg.host_thread = config_.name + "/virtio_mem-host";
  virtio_ = std::make_unique<VirtioMemDevice>(vcfg, hotplug_.get(), this, cpu_);

  balloon_ = std::make_unique<BalloonDevice>(memmap_.get(), &hv_->cost(), hv_, vm_, cpu_,
                                             config_.name + "/balloon-guest",
                                             config_.name + "/balloon-host");

  // The kernel's own footprint: pinned, unmovable, host-backed at boot.
  const uint64_t kernel_bytes = std::min<uint64_t>(MiB(96), config_.base_memory / 4);
  uint64_t kernel_pages = BytesToPages(kernel_bytes);
  HostBackingBatch backing;
  while (kernel_pages > 0) {
    const uint8_t order = static_cast<uint8_t>(
        std::min<uint64_t>(kMaxPageOrder, 63 - __builtin_clzll(kernel_pages)));
    const Pfn pfn = normal_zone_->Alloc(order, PageKind::kKernel, kNoOwner, 0);
    assert(pfn != kInvalidPfn);
    MarkHostBacking(pfn, 1u << order, config_.boot_time, &backing);
    kernel_pages -= 1u << order;
  }
  BookHostBacking(&backing, config_.boot_time);
}

GuestKernel::~GuestKernel() = default;

Zone* GuestKernel::CreateZone(ZoneType type, const std::string& name) {
  const int16_t id = static_cast<int16_t>(zones_.size());
  zones_.push_back(std::make_unique<Zone>(id, type, name, memmap_.get(), nullptr));
  return zones_.back().get();
}

// --- Processes ----------------------------------------------------------------

Pid GuestKernel::CreateProcess() {
  const Pid pid = static_cast<Pid>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, kNoPid));
  ++live_processes_;
  return pid;
}

Pid GuestKernel::Fork(Pid parent_pid) {
  Process& parent = process(parent_pid);
  assert(parent.state() == ProcessState::kRunning);
  const Pid pid = static_cast<Pid>(processes_.size());
  processes_.push_back(std::make_unique<Process>(pid, parent_pid));
  Process& child = *processes_.back();
  ++live_processes_;
  // The child joins the parent's Squeezy partition (paper §4.1) and shares
  // its file mappings.  Anonymous memory is not duplicated (we model a
  // fork+exec/CoW-light worker, the common container pattern).
  child.set_partition_id(parent.partition_id());
  child.set_anon_zone(parent.anon_zone());
  for (const int32_t f : parent.files()) {
    child.MapFile(f);
  }
  if (lifecycle_ != nullptr) {
    lifecycle_->OnFork(parent, child);
  }
  return pid;
}

bool GuestKernel::Alive(Pid pid) const {
  return processes_[static_cast<size_t>(pid)]->state() == ProcessState::kRunning;
}

void GuestKernel::Exit(Pid pid) {
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  proc.set_state(ProcessState::kExited);
  FolioRef folio;
  while (proc.PopFolio(&folio)) {
    ZoneOf(folio.head).Free(folio.head);
  }
  assert(live_processes_ > 0);
  --live_processes_;
  if (lifecycle_ != nullptr) {
    lifecycle_->OnExit(proc);
  }
}

void GuestKernel::OomKill(Pid pid) {
  Exit(pid);
  process(pid).set_state(ProcessState::kOomKilled);
}

// --- Fault paths -----------------------------------------------------------------

uint64_t GuestKernel::BackGranules(Pfn first, uint32_t pages, uint64_t* new_pages) {
  const uint32_t granule_pages = static_cast<uint32_t>(cost().host_thp_bytes / kPageSize);
  assert(granule_pages >= 1 && kPagesPerBlock % granule_pages == 0);
  if (granule_pages == 1) {
    // Every newly backed page is its own granule.
    const uint64_t fresh = memmap_->PopulateRange(first, pages);
    *new_pages += fresh;
    return fresh;
  }
  const Pfn first_granule = first / granule_pages;
  const Pfn last_granule = (first + pages - 1) / granule_pages;
  uint64_t granules = 0;
  for (Pfn g = first_granule; g <= last_granule; ++g) {
    // Host THP backs the whole aligned granule on first touch.
    const uint64_t fresh = memmap_->PopulateRange(g * granule_pages, granule_pages);
    *new_pages += fresh;
    granules += fresh > 0 ? 1 : 0;
  }
  return granules;
}

void GuestKernel::QueueFaults(HostBackingBatch* batch, uint64_t extents, uint64_t faults,
                              uint64_t pages, TimeNs now) {
  if (batch->extents != extents) {
    BookHostBacking(batch, now);
  }
  batch->extents = extents;
  batch->faults += faults;
  batch->pages += pages;
}

void GuestKernel::MarkHostBacking(Pfn head, uint32_t pages, TimeNs now,
                                  HostBackingBatch* batch) {
  uint64_t new_pages = 0;
  const uint64_t extents = BackGranules(head, pages, &new_pages);
  if (extents > 0) {
    QueueFaults(batch, extents, 1, new_pages, now);
  }
}

void GuestKernel::MarkHostBackingPages(Pfn first, uint32_t pages, TimeNs now,
                                       HostBackingBatch* batch) {
  // Page by page, the first fault into a granule backs all of it (one
  // exit) and the rest of the granule's faults find it backed.
  uint64_t new_pages = 0;
  const uint64_t faults = BackGranules(first, pages, &new_pages);
  if (faults > 0) {
    QueueFaults(batch, 1, faults, new_pages, now);
  }
}

void GuestKernel::BookHostBacking(HostBackingBatch* batch, TimeNs now) {
  if (batch->faults > 0) {
    batch->booked += hv_->NestedFaultPopulate(
        vm_, batch->extents, PagesToBytes(batch->pages), now, batch->faults);
    batch->faults = 0;
    batch->pages = 0;
  }
}

void GuestKernel::FlushHostBacking(HostBackingBatch* batch, TimeNs now,
                                   TouchResult* result) {
  BookHostBacking(batch, now);
  result->nested += batch->booked;
  result->latency += batch->booked;
  batch->booked = 0;
}

Zone* GuestKernel::AnonZoneFor(const Process& proc) {
  return proc.anon_zone() != nullptr ? proc.anon_zone() : movable_zone_;
}

Zone* GuestKernel::FileFallbackZone(const Process& proc) {
  const bool confined = proc.anon_zone() != nullptr;
  return confined || file_zone_ == normal_zone_ ? nullptr : normal_zone_;
}

Zone& GuestKernel::ZoneOf(Pfn pfn) {
  return *zones_[static_cast<size_t>(std::as_const(*memmap_).page(pfn).zone_id)];
}

TouchResult GuestKernel::TouchAnon(Pid pid, uint64_t bytes, TimeNs now) {
  TouchResult result;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  Zone* primary = AnonZoneFor(proc);
  // Squeezy processes are confined to their partition; vanilla movable
  // allocations may spill into ZONE_NORMAL like Linux's zonelist fallback.
  Zone* fallback = (proc.anon_zone() == nullptr) ? normal_zone_ : nullptr;

  HostBackingBatch backing;
  uint64_t remaining = BytesToPages(bytes);
  while (remaining > 0) {
    uint8_t order = static_cast<uint8_t>(
        std::min<uint64_t>(kThpOrder, 63 - __builtin_clzll(remaining)));
    Pfn head = kInvalidPfn;
    Zone* zone = nullptr;
    for (;;) {
      const uint32_t slot = proc.ReserveSlot();
      head = primary->Alloc(order, PageKind::kAnon, pid, slot);
      zone = primary;
      if (head == kInvalidPfn && fallback != nullptr) {
        head = fallback->Alloc(order, PageKind::kAnon, pid, slot);
        zone = fallback;
      }
      if (head != kInvalidPfn) {
        proc.CommitSlot(slot, head, order);
        break;
      }
      proc.AbandonSlot(slot);  // Nothing was allocated into it.
      if (order == 0) {
        break;
      }
      --order;  // Fall back to smaller folios under fragmentation.
    }
    if (head == kInvalidPfn) {
      // Out of memory: the partition cap (or the VM) was exhausted.  The
      // OOM killer reaps the process (paper §4.1).  The faults taken so
      // far are booked first: the kill may unplug memory at `now`.
      FlushHostBacking(&backing, now, &result);
      OomKill(pid);
      result.oom = true;
      return result;
    }
    (void)zone;
    const uint32_t folio_pages = 1u << order;
    result.latency += cost().fault_folio_fixed + cost().fault_page * folio_pages;
    MarkHostBacking(head, folio_pages, now, &backing);
    result.bytes += PagesToBytes(folio_pages);
    remaining -= folio_pages;
  }
  FlushHostBacking(&backing, now, &result);
  return result;
}

TouchResult GuestKernel::TouchFile(Pid pid, int32_t file_id, uint64_t bytes, TimeNs now) {
  TouchResult result;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  const uint64_t pages =
      std::min<uint64_t>(BytesToPages(bytes), page_cache_.FilePages(file_id));

  // Fast path: fully cached prefix -> pure remap cost, no walk at all.
  if (page_cache_.PrefixCached(file_id, pages)) {
    result.latency += cost().fault_page * static_cast<int64_t>(pages);
    result.bytes = PagesToBytes(pages);
    return result;
  }

  // Misses read from the file's backing source: cold backing-store IO by
  // default, or the per-file override (a peer host's resident image
  // served at wire speed) installed by the cluster dependency cache.
  const DurationNs backing_x1000 = page_cache_.backing_cost(file_id);
  const DurationNs miss_read =
      backing_x1000 < 0 ? cost().IoBytes(kPageSize)
                        : backing_x1000 * static_cast<DurationNs>(kPageSize) / 1000;
  const FileMisses misses =
      FaultFileMisses(page_cache_, file_id, pages, file_zone_, FileFallbackZone(proc));
  const uint64_t got = misses.allocated;
  // Hits remap; every page from the first miss left without a frame on is
  // never reached (the OOM kill ends the fault there).
  result.latency += cost().fault_page * static_cast<DurationNs>(misses.reached - got) +
                    (cost().fault_folio_fixed + cost().fault_page + miss_read) *
                        static_cast<DurationNs>(got);
  if (backing_x1000 < 0) {
    page_cache_.CountDiskRead(file_id, PagesToBytes(got));
  } else {
    page_cache_.CountRemoteRead(file_id, PagesToBytes(got));
  }
  HostBackingBatch backing;
  ForEachRun(misses, [&](Pfn first, uint32_t n) {
    MarkHostBackingPages(first, n, now, &backing);
  });
  // The faults taken are booked first: the OOM kill may unplug memory at `now`.
  FlushHostBacking(&backing, now, &result);
  if (misses.oom) {
    OomKill(pid);
    result.oom = true;
    return result;
  }
  result.bytes = PagesToBytes(pages);
  return result;
}

RestoreOutcome GuestKernel::RestoreWorkingSet(Pid pid, int32_t file_id,
                                              uint64_t file_pages, uint64_t anon_bytes,
                                              TimeNs now) {
  RestoreOutcome out;
  Process& proc = process(pid);
  assert(proc.state() == ProcessState::kRunning);
  uint64_t populate_pages = 0;
  auto mark_populated = [this, &populate_pages](Pfn head, uint32_t pages) {
    populate_pages += memmap_->PopulateRange(head, pages);
  };

  // Recorded file pages: straight into the page cache, no backing read —
  // the snapshot file carries their contents.  A partial restore leaves
  // the rest to demand-fault as tail.
  const uint64_t pages = std::min(file_pages, page_cache_.FilePages(file_id));
  const FileMisses misses =
      FaultFileMisses(page_cache_, file_id, pages, file_zone_, FileFallbackZone(proc));
  ForEachRun(misses, mark_populated);
  out.file_bytes = PagesToBytes(misses.allocated);
  page_cache_.CountRestored(file_id, out.file_bytes);

  // Recorded heap: committed to the process under the same placement rules
  // as TouchAnon (partition confinement with vanilla normal-zone spill),
  // without the per-folio fault charges the demand path pays.
  uint64_t remaining = BytesToPages(anon_bytes);
  Zone* primary = AnonZoneFor(proc);
  Zone* fallback = (proc.anon_zone() == nullptr) ? normal_zone_ : nullptr;
  while (remaining > 0) {
    uint8_t order = static_cast<uint8_t>(
        std::min<uint64_t>(kThpOrder, 63 - __builtin_clzll(remaining)));
    Pfn head = kInvalidPfn;
    for (;;) {
      const uint32_t slot = proc.ReserveSlot();
      head = primary->Alloc(order, PageKind::kAnon, pid, slot);
      if (head == kInvalidPfn && fallback != nullptr) {
        head = fallback->Alloc(order, PageKind::kAnon, pid, slot);
      }
      if (head != kInvalidPfn) {
        proc.CommitSlot(slot, head, order);
        break;
      }
      proc.AbandonSlot(slot);
      if (order == 0) {
        break;
      }
      --order;
    }
    if (head == kInvalidPfn) {
      OomKill(pid);
      out.oom = true;
      return out;
    }
    const uint32_t folio_pages = 1u << order;
    mark_populated(head, folio_pages);
    out.anon_bytes += PagesToBytes(folio_pages);
    remaining -= folio_pages;
  }

  // One bulk EPT populate for the whole prefetched span: the host backs
  // the restore with a single large read, not one exit per granule — the
  // entire point of prefetching over demand faulting.
  if (populate_pages > 0) {
    out.nested = hv_->NestedFaultPopulate(vm_, 1, PagesToBytes(populate_pages), now);
  }
  return out;
}

TouchResult GuestKernel::AdoptFileCache(int32_t file_id, TimeNs now, bool populate_host) {
  TouchResult result;
  // A partial adoption leaves the remainder to fault in normally.
  const FileMisses misses =
      FaultFileMisses(page_cache_, file_id, page_cache_.FilePages(file_id), file_zone_,
                      /*fallback=*/nullptr);
  // Fault cost, no backing read.  Sibling sharing (populate_host ==
  // false) adds no host frames — the host already backs the image for
  // another VM; migration-landed bytes need frames of their own.
  result.latency += (cost().fault_folio_fixed + cost().fault_page) *
                    static_cast<DurationNs>(misses.allocated);
  HostBackingBatch backing;
  if (populate_host) {
    ForEachRun(misses, [&](Pfn first, uint32_t n) {
      MarkHostBackingPages(first, n, now, &backing);
    });
  }
  result.bytes = PagesToBytes(misses.allocated);
  FlushHostBacking(&backing, now, &result);
  page_cache_.CountAdopted(file_id, result.bytes);
  return result;
}

uint64_t GuestKernel::DropFileCache(int32_t file_id, TimeNs now) {
  // Page by page in index order, so the frees coalesce as they always did.
  uint64_t dropped_pages = 0;
  uint64_t unpop_pages = 0;
  for (const PageCache::Extent& e : page_cache_.RemoveAll(file_id)) {
    for (Pfn pfn = e.pfn; pfn < e.pfn + e.count; ++pfn) {
      unpop_pages += memmap_->Unpopulate(pfn) ? 1 : 0;
      ZoneOf(pfn).Free(pfn);
    }
    dropped_pages += e.count;
  }
  if (unpop_pages > 0) {
    hv_->MadviseRelease(vm_, PagesToBytes(unpop_pages), now);
  }
  return PagesToBytes(dropped_pages);
}

uint64_t GuestKernel::FreeAnon(Pid pid, uint64_t bytes) {
  Process& proc = process(pid);
  uint64_t freed = 0;
  FolioRef folio;
  while (freed < bytes && proc.PopFolio(&folio)) {
    ZoneOf(folio.head).Free(folio.head);
    freed += PagesToBytes(folio.pages());
  }
  return freed;
}

int32_t GuestKernel::CreateFile(const std::string& name, uint64_t size_bytes) {
  return page_cache_.RegisterFile(name, size_bytes);
}

// --- Memory elasticity ---------------------------------------------------------

PlugOutcome GuestKernel::PlugMemory(uint64_t bytes, TimeNs now) {
  return virtio_->Plug(bytes, now);
}

UnplugOutcome GuestKernel::UnplugMemory(uint64_t bytes, TimeNs now) {
  return virtio_->Unplug(bytes, now);
}

BalloonOutcome GuestKernel::BalloonReclaim(uint64_t bytes, TimeNs now) {
  return balloon_->Inflate(bytes, movable_zone_, now);
}

void GuestKernel::WarmAllHostBacking(TimeNs now) {
  // Every frame of a present block is memory the host can back; an absent
  // block has nothing behind it.  Backing is a bitmap, so warming gives
  // no granule frames.
  uint64_t new_pages = 0;
  for (BlockIndex b = 0; b < memmap_->block_count(); ++b) {
    if (memmap_->block_state(b) != BlockState::kAbsent) {
      new_pages += memmap_->PopulateRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
  }
  if (new_pages > 0) {
    hv_->NestedFaultPopulate(vm_, 0, PagesToBytes(new_pages), now);
  }
}

// --- Accounting -------------------------------------------------------------------

uint64_t GuestKernel::allocated_bytes() const {
  uint64_t pages = 0;
  for (const auto& z : zones_) {
    pages += z->allocated_pages();
  }
  return PagesToBytes(pages);
}

uint64_t GuestKernel::online_bytes() const {
  uint64_t pages = 0;
  for (const auto& z : zones_) {
    pages += z->managed_pages();
  }
  return PagesToBytes(pages);
}

// --- OwnerRegistry ------------------------------------------------------------------

void GuestKernel::RelocateFolio(PageKind kind, int32_t owner, uint32_t owner_slot,
                                Pfn new_head) {
  if (kind == PageKind::kAnon) {
    process(owner).Relocate(owner_slot, new_head);
  } else if (kind == PageKind::kFile) {
    page_cache_.Relocate(owner, owner_slot, new_head);
  }
}

// --- VirtioMemHooks: vanilla Linux policy -----------------------------------------

std::vector<BlockIndex> GuestKernel::SelectPlugBlocks(uint64_t max_blocks) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->SelectPlugBlocks(max_blocks);
  }
  // Vanilla: lowest absent blocks of the device region first.
  std::vector<BlockIndex> out;
  for (BlockIndex b = hotplug_first_block_;
       b < hotplug_first_block_ + hotplug_nr_blocks_ && out.size() < max_blocks; ++b) {
    if (memmap_->block_state(b) == BlockState::kAbsent) {
      out.push_back(b);
    }
  }
  return out;
}

Zone* GuestKernel::OnlineTargetZone(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->OnlineTargetZone(b);
  }
  // Vanilla: hot-plugged memory onlines into ZONE_MOVABLE so it stays
  // (theoretically) offlinable.
  return movable_zone_;
}

void GuestKernel::OnBlockOnline(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    override_hooks_->OnBlockOnline(b);
  }
}

std::vector<BlockIndex> GuestKernel::SelectUnplugBlocks(uint64_t max_blocks) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->SelectUnplugBlocks(max_blocks);
  }
  // Vanilla policy: every online block of the device region is a
  // candidate.  Linux virtio-mem walks by address, highest block first;
  // the emptiest-first variant (fewest pages to migrate) is a smarter
  // hypothetical baseline evaluated in the block-selection ablation.
  std::vector<BlockIndex> candidates;
  for (BlockIndex b = hotplug_first_block_; b < hotplug_first_block_ + hotplug_nr_blocks_;
       ++b) {
    if (memmap_->block_state(b) == BlockState::kOnline) {
      candidates.push_back(b);
    }
  }
  if (config_.unplug_selection == UnplugSelection::kEmptiestFirst) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [this](BlockIndex a, BlockIndex b) {
                       return memmap_->BlockOccupied(a) < memmap_->BlockOccupied(b);
                     });
  } else {
    std::reverse(candidates.begin(), candidates.end());
  }
  (void)max_blocks;  // The driver stops when the request is met.
  return candidates;
}

OfflineOptions GuestKernel::OfflineOptionsFor(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->OfflineOptionsFor(b);
  }
  return OfflineOptions{/*skip_zeroing=*/false, /*allow_migration=*/true};
}

Zone* GuestKernel::BlockZone(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->BlockZone(b);
  }
  // A const read: a uniform granule reports its zone without
  // materializing.
  const int16_t zone_id = std::as_const(*memmap_).page(MemMap::BlockStart(b)).zone_id;
  assert(zone_id >= 0);
  return zones_[static_cast<size_t>(zone_id)].get();
}

Zone* GuestKernel::MigrationTarget(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    return override_hooks_->MigrationTarget(b);
  }
  return movable_zone_;
}

void GuestKernel::OnBlockUnplugged(BlockIndex b) {
  if (override_hooks_ != nullptr) {
    override_hooks_->OnBlockUnplugged(b);
  }
}

}  // namespace squeezy
