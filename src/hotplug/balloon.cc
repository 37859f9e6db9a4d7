#include "src/hotplug/balloon.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace squeezy {

BalloonDevice::BalloonDevice(MemMap* memmap, const CostModel* cost, Hypervisor* hv,
                             VmId vm, CpuAccountant* cpu, std::string guest_thread,
                             std::string host_thread)
    : memmap_(memmap),
      cost_(cost),
      hv_(hv),
      vm_(vm),
      cpu_(cpu),
      guest_thread_(std::move(guest_thread)),
      host_thread_(std::move(host_thread)) {
  assert(memmap_ != nullptr && cost_ != nullptr && hv_ != nullptr);
}

BalloonOutcome BalloonDevice::Inflate(uint64_t bytes, Zone* zone, TimeNs now) {
  BalloonOutcome out;
  const uint64_t want = BytesToPages(bytes);
  // The driver pins pages it inflates: they become unmovable kernel
  // allocations until deflation.  One run allocation picks exactly the
  // pages that many single-page allocations would, and stops where the
  // zone runs dry (inflation stalls, complete=false).  A held page's owner
  // slot is its index in held_.
  const size_t first = held_.size();
  std::vector<PfnRun> runs;
  out.pages = zone->AllocPages(std::min(want, zone->free_pages()), PageKind::kKernel,
                               kNoOwner, static_cast<uint32_t>(first), &runs);
  held_.resize(first + out.pages);  // Grows geometrically across inflations.
  Pfn* held = held_.data() + first;
  for (const PfnRun& run : runs) {
    for (uint32_t i = 0; i < run.count; ++i) {
      *held++ = run.first + i;
    }
  }
  out.breakdown.rest = cost_->balloon_guest_page * static_cast<int64_t>(out.pages);

  // Pages are reported in batches.  With batch size 1 every page pays a VM
  // exit; larger batches amortize the kick (the batching ablation) but the
  // host still releases per-page (MADV_DONTNEED on 4 KiB): only
  // host-populated frames shrink the host's footprint, but every report
  // pays the exit-side latency.  Consecutive batches of equal size and
  // populated count are booked in one call, as that many reports.
  const uint64_t batch_pages = std::max<uint64_t>(1, cost_->balloon_batch_pages);
  uint64_t run_size = 0;
  uint64_t run_populated = 0;
  uint64_t run_batches = 0;
  auto book_run = [&] {
    if (run_batches == 0) {
      return;
    }
    const uint64_t unbacked = (run_size - run_populated) * run_batches;
    out.breakdown.vm_exits += hv_->BalloonRelease(vm_, run_populated, now, run_batches) +
                              cost_->balloon_exit_page * static_cast<int64_t>(unbacked);
    run_batches = 0;
  };
  for (uint64_t i = 0; i < out.pages; i += batch_pages) {
    const uint64_t size = std::min(batch_pages, out.pages - i);
    uint64_t populated = 0;
    for (uint64_t k = first + i; k < first + i + size; ++k) {
      populated += memmap_->Unpopulate(held_[k]) ? 1 : 0;
    }
    if (run_batches > 0 && (size != run_size || populated != run_populated)) {
      book_run();
    }
    run_size = size;
    run_populated = populated;
    ++run_batches;
  }
  book_run();

  out.complete = out.pages >= want;
  if (cpu_ != nullptr) {
    if (out.breakdown.rest > 0) {
      cpu_->AddBusy(guest_thread_, now, out.breakdown.rest);
    }
    if (out.breakdown.vm_exits > 0) {
      cpu_->AddBusy(host_thread_, now, out.breakdown.vm_exits);
    }
  }
  return out;
}

DurationNs BalloonDevice::Deflate(uint64_t bytes, MemMap& memmap, Zone* zone) {
  (void)memmap;  // Used only by the assert below in debug builds.
  const uint64_t want = std::min<uint64_t>(BytesToPages(bytes), held_.size());
  DurationNs latency = 0;
  for (uint64_t i = 0; i < want; ++i) {
    const Pfn pfn = held_.back();
    held_.pop_back();
    assert(std::as_const(memmap).page(pfn).state == PageState::kAllocated);
    zone->Free(pfn);
    latency += cost_->balloon_guest_page;
  }
  return latency;
}

}  // namespace squeezy
