// Micro-benchmarks (google-benchmark) for the hot paths of the MM
// substrate: buddy allocation, fault paths, isolation and migration.
// These gate the simulator's own performance, not the paper's results.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/core/squeezy.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/hotplug/balloon.h"
#include "src/mm/memmap.h"
#include "src/mm/migration.h"
#include "src/mm/zone.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"

namespace squeezy {
namespace {

void BM_BuddyAllocFree(benchmark::State& state) {
  const uint8_t order = static_cast<uint8_t>(state.range(0));
  MemMap memmap(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  for (BlockIndex b = 0; b < 8; ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  for (auto _ : state) {
    const Pfn pfn = zone.Alloc(order, PageKind::kAnon, 1, 0);
    benchmark::DoNotOptimize(pfn);
    zone.Free(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuddyAllocFree)->Arg(0)->Arg(4)->Arg(9)->Arg(10);

void BM_BuddyChurn(benchmark::State& state) {
  MemMap memmap(GiB(1));
  Rng rng(3);
  Zone zone(0, ZoneType::kMovable, "z", &memmap, &rng);
  for (BlockIndex b = 0; b < 8; ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  std::vector<Pfn> live;
  Rng op_rng(4);
  for (auto _ : state) {
    if (live.empty() || op_rng.Chance(0.55)) {
      const Pfn pfn = zone.Alloc(static_cast<uint8_t>(op_rng.UniformInt(0, 9)),
                                 PageKind::kAnon, 1, 0);
      if (pfn != kInvalidPfn) {
        live.push_back(pfn);
      }
    } else {
      const int64_t last = static_cast<int64_t>(live.size()) - 1;
      const size_t i = static_cast<size_t>(op_rng.UniformInt(0, last));
      zone.Free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (const Pfn pfn : live) {
    zone.Free(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuddyChurn);

void BM_AnonFaultPath(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(8);
  GuestKernel guest(cfg, &hv);
  guest.PlugMemory(GiB(8), 0);
  for (auto _ : state) {
    const Pid pid = guest.CreateProcess();
    guest.TouchAnon(pid, MiB(64), 0);
    guest.Exit(pid);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(64));
}
BENCHMARK(BM_AnonFaultPath);

// One never-allocated 128 MiB block through the whole hotplug pipeline:
// hot-add + online, then offline + hot-remove.
void BM_PlugUnplugUntouchedBlock(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, &hv);
  for (auto _ : state) {
    guest.PlugMemory(kMemoryBlockBytes, 0);
    const UnplugOutcome out = guest.UnplugMemory(kMemoryBlockBytes, 0);
    benchmark::DoNotOptimize(out.bytes_unplugged);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlugUnplugUntouchedBlock);

// The same cycle with 64 MiB of file pages read into the block (page by
// page, each host-backed) and dropped again before the unplug.
void BM_PlugTouchUnplugBlock(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, &hv);
  const int32_t file = guest.CreateFile("dep", MiB(64));
  const Pid pid = guest.CreateProcess();
  for (auto _ : state) {
    guest.PlugMemory(kMemoryBlockBytes, 0);
    guest.TouchFile(pid, file, MiB(64), 0);
    guest.DropFileCache(file, 0);
    const UnplugOutcome out = guest.UnplugMemory(kMemoryBlockBytes, 0);
    benchmark::DoNotOptimize(out.bytes_unplugged);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlugTouchUnplugBlock);

// A 64 MiB file faulted cold into a freshly plugged block: the first miss
// materializes the block, then every page misses.  Plug, drop and unplug
// are outside the timed region.
void BM_TouchFileCold(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, &hv);
  const int32_t file = guest.CreateFile("dep", MiB(64));
  const Pid pid = guest.CreateProcess();
  for (auto _ : state) {
    state.PauseTiming();
    guest.PlugMemory(kMemoryBlockBytes, 0);
    state.ResumeTiming();
    const TouchResult r = guest.TouchFile(pid, file, MiB(64), 0);
    benchmark::DoNotOptimize(r.latency);
    state.PauseTiming();
    guest.DropFileCache(file, 0);
    guest.UnplugMemory(kMemoryBlockBytes, 0);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(64));
}
BENCHMARK(BM_TouchFileCold);

// The agent's cold start: container init reads the rootfs quarter of a
// 200 MiB dependency file, function init the whole file.  The second touch
// re-maps the cached prefix and faults the rest.  Plug, drop and unplug
// are outside the timed region.
void BM_TouchFilePrefixThenRest(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(1);
  GuestKernel guest(cfg, &hv);
  const int32_t file = guest.CreateFile("dep", MiB(200));
  const Pid pid = guest.CreateProcess();
  for (auto _ : state) {
    state.PauseTiming();
    guest.PlugMemory(MiB(256), 0);
    state.ResumeTiming();
    const TouchResult rootfs = guest.TouchFile(pid, file, MiB(50), 0);
    const TouchResult deps = guest.TouchFile(pid, file, MiB(200), 0);
    benchmark::DoNotOptimize(rootfs.latency + deps.latency);
    state.PauseTiming();
    guest.DropFileCache(file, 0);
    guest.UnplugMemory(MiB(256), 0);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(200));
}
BENCHMARK(BM_TouchFilePrefixThenRest);

// The stamping pass that gives an online, free granule its frames (the
// first split below THP order pays it).  Onlining and the offline and
// teardown that drop the frames again are outside the timed region.
void BM_MaterializeGranule(benchmark::State& state) {
  MemMap memmap(kMemoryBlockBytes);
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  for (auto _ : state) {
    state.PauseTiming();
    memmap.InitBlock(0);
    zone.AddFreeRange(0, kPagesPerBlock);
    state.ResumeTiming();
    benchmark::DoNotOptimize(&memmap.page(0));
    state.PauseTiming();
    zone.IsolateFreeRange(0, kPagesPerBlock);
    zone.RetireRange(0, kPagesPerBlock);
    memmap.TeardownBlock(0);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaterializeGranule);

// An aborted offline of an empty block: isolation and the re-free each
// write the block's granule records, 32 max-order chunks at a time.
void BM_IsolateUndo(benchmark::State& state) {
  MemMap memmap(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  memmap.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  for (auto _ : state) {
    zone.IsolateFreeRange(0, kPagesPerBlock);
    zone.UndoIsolation(0, kPagesPerBlock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IsolateUndo);

// The abort the hotplug path takes: one allocated page splits one granule,
// so isolation and the re-free walk that granule's frames.
void BM_IsolateUndoUsedBlock(benchmark::State& state) {
  MemMap memmap(GiB(1));
  Zone zone(0, ZoneType::kMovable, "z", &memmap);
  memmap.InitBlock(0);
  zone.AddFreeRange(0, kPagesPerBlock);
  const Pfn used = zone.Alloc(0, PageKind::kAnon, 1, 0);
  benchmark::DoNotOptimize(used);
  for (auto _ : state) {
    zone.IsolateFreeRange(0, kPagesPerBlock);
    zone.UndoIsolation(0, kPagesPerBlock);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IsolateUndoUsedBlock);

void BM_MigrateBlock(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    MemMap memmap(GiB(1));
    Zone zone(0, ZoneType::kMovable, "z", &memmap);
    for (BlockIndex b = 0; b < 4; ++b) {
      memmap.InitBlock(b);
      zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
    }
    // Half-occupy block 0 with THP folios.
    for (int i = 0; i < 32; ++i) {
      zone.Alloc(kThpOrder, PageKind::kAnon, 1, static_cast<uint32_t>(i));
    }
    zone.IsolateFreeRange(0, kPagesPerBlock);
    state.ResumeTiming();
    const MigrateOutcome out = MigrateOutOfRange(memmap, zone, zone, 0, kPagesPerBlock,
                                                 CostModel::Default(), nullptr);
    benchmark::DoNotOptimize(out.pages_moved);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MigrateBlock);

void BM_SqueezyUnplugPartition(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  SqueezyConfig scfg;
  scfg.partition_bytes = MiB(768);
  scfg.nr_partitions = 2;
  scfg.shared_bytes = 0;
  cfg.hotplug_region = scfg.region_bytes();
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  for (auto _ : state) {
    guest.PlugMemory(MiB(768), 0);
    const Pid pid = guest.CreateProcess();
    sqz.SqueezyEnable(pid);
    guest.TouchAnon(pid, MiB(512), 0);
    guest.Exit(pid);
    const UnplugOutcome out = guest.UnplugMemory(MiB(768), 0);
    benchmark::DoNotOptimize(out.bytes_unplugged);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * MiB(768));
}
BENCHMARK(BM_SqueezyUnplugPartition);

// A 2 GiB balloon inflation out of a shuffled, fully host-backed 4 GiB
// movable zone: one run allocation and the batched host release.  The
// deflation and the re-backing between iterations are not timed.
void BM_BalloonInflate(benchmark::State& state) {
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  const VmId vm = hv.RegisterVm("vm", 1);
  MemMap memmap(GiB(4));
  Rng rng(7);
  Zone zone(0, ZoneType::kMovable, "z", &memmap, &rng);
  for (BlockIndex b = 0; b < memmap.block_count(); ++b) {
    memmap.InitBlock(b);
    zone.AddFreeRange(MemMap::BlockStart(b), kPagesPerBlock);
  }
  Rng shuffle(8);
  zone.ShuffleFreeLists(shuffle);
  BalloonDevice balloon(&memmap, &cost, &hv, vm);
  for (auto _ : state) {
    state.PauseTiming();
    const uint64_t backed =
        memmap.PopulateRange(0, static_cast<uint32_t>(memmap.span_pages()));
    hv.NestedFaultPopulate(vm, 0, PagesToBytes(backed), 0);
    state.ResumeTiming();
    const BalloonOutcome out = balloon.Inflate(GiB(2), &zone, 0);
    benchmark::DoNotOptimize(out.breakdown.vm_exits);
    state.PauseTiming();
    balloon.Deflate(GiB(2), memmap, &zone);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * GiB(2));
}
BENCHMARK(BM_BalloonInflate);

}  // namespace
}  // namespace squeezy

BENCHMARK_MAIN();
