// Randomized property tests (parameterized sweeps): the system-wide
// invariants of DESIGN.md §6 must survive arbitrary operation sequences.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <ios>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/trace/cluster_trace.h"
#include "tests/placement_scan_oracle.h"
#include "tests/reference_event_queue.h"

namespace squeezy {
namespace {

// --- Vanilla guest fuzz: mixed process/file/hotplug/balloon ops ---------------

class GuestFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GuestFuzzTest, MixedOperationsKeepInvariants) {
  const uint64_t seed = GetParam();
  HostMemory host(GiB(64));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = GiB(2);
  cfg.seed = seed;
  cfg.unplug_timeout = Minutes(1);
  GuestKernel guest(cfg, &hv);
  guest.PlugMemory(MiB(512), 0);

  Rng rng(seed * 2654435761ull + 1);
  std::vector<Pid> live;
  std::vector<int32_t> files;
  files.push_back(guest.CreateFile("f0", MiB(32)));

  for (int step = 0; step < 300; ++step) {
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Spawn + touch.
        const Pid pid = guest.CreateProcess();
        guest.TouchAnon(pid, static_cast<uint64_t>(rng.UniformInt(1, 64)) * MiB(1), 0);
        if (guest.Alive(pid)) {
          live.push_back(pid);
        }
        break;
      }
      case 1: {  // Exit.
        if (!live.empty()) {
          const size_t i = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
          guest.Exit(live[i]);
          live[i] = live.back();
          live.pop_back();
        }
        break;
      }
      case 2: {  // Partial free + re-touch.
        if (!live.empty()) {
          const Pid pid = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          const uint64_t freed = guest.FreeAnon(pid, MiB(8));
          guest.TouchAnon(pid, freed, 0);
          if (!guest.Alive(pid)) {
            for (size_t i = 0; i < live.size(); ++i) {
              if (live[i] == pid) {
                live[i] = live.back();
                live.pop_back();
                break;
              }
            }
          }
        }
        break;
      }
      case 3: {  // File touch (shared cache).
        if (!live.empty()) {
          const Pid pid = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          guest.TouchFile(pid, files[0], MiB(16), 0);
        }
        break;
      }
      case 4:  // Plug.
        guest.PlugMemory(kMemoryBlockBytes, 0);
        break;
      case 5:  // Unplug (may migrate or fail under pressure: both legal).
        guest.UnplugMemory(kMemoryBlockBytes, 0);
        break;
      case 6:  // Balloon round-trip.
        guest.BalloonReclaim(MiB(16), 0);
        guest.balloon().Deflate(MiB(16), guest.memmap(), &guest.movable_zone());
        break;
    }
    // Invariants checked every step.
    ASSERT_TRUE(guest.movable_zone().CheckFreeLists());
    ASSERT_TRUE(guest.normal_zone().CheckFreeLists());
    // Occupancy counters match full scans on a sampled block.
    const BlockIndex b = static_cast<BlockIndex>(
        rng.UniformInt(0, static_cast<int64_t>(guest.memmap().block_count()) - 1));
    if (guest.memmap().block_state(b) == BlockState::kOnline) {
      ASSERT_EQ(guest.memmap().BlockOccupied(b),
                guest.memmap().CountBlockPages(b, PageState::kAllocated));
    }
  }
  // Tear down everything: zones must drain to zero allocations.
  for (const Pid pid : live) {
    guest.Exit(pid);
  }
  guest.balloon().Deflate(GiB(1), guest.memmap(), &guest.movable_zone());
  EXPECT_EQ(guest.movable_zone().allocated_pages(),
            guest.page_cache().total_cached_pages());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestFuzzTest, testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Squeezy fuzz across partition geometries ---------------------------------

class SqueezyFuzzTest
    : public testing::TestWithParam<std::tuple<uint64_t /*partition MiB*/, uint32_t /*N*/,
                                               uint64_t /*seed*/>> {};

TEST_P(SqueezyFuzzTest, PartitionStateMachineConsistent) {
  const auto [part_mib, nr, seed] = GetParam();
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = part_mib * MiB(1);
  scfg.nr_partitions = nr;
  scfg.shared_bytes = MiB(128);
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  cfg.seed = seed;
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);

  Rng rng(seed + 7);
  std::vector<Pid> live;
  for (int step = 0; step < 200; ++step) {
    const int64_t op = rng.UniformInt(0, 3);
    if (op == 0 && sqz.populated_partitions() < nr) {
      guest.PlugMemory(scfg.partition_bytes, 0);
    } else if (op == 1 && sqz.ready_partitions() > 0) {
      const Pid pid = guest.CreateProcess();
      ASSERT_TRUE(sqz.SqueezyEnable(pid).has_value());
      const uint64_t bytes =
          static_cast<uint64_t>(rng.UniformInt(1, static_cast<int64_t>(part_mib) - 32)) *
          MiB(1);
      ASSERT_FALSE(guest.TouchAnon(pid, bytes, 0).oom);
      live.push_back(pid);
    } else if (op == 2 && !live.empty()) {
      const size_t i =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      guest.Exit(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (op == 3 && sqz.ready_partitions() > 0) {
      const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
      ASSERT_EQ(out.pages_migrated, 0u);
    }

    // State-machine invariants.
    uint32_t assigned = 0;
    for (size_t p = 0; p < sqz.partition_count(); ++p) {
      const Partition& part = sqz.partition(static_cast<int32_t>(p));
      switch (part.state) {
        case PartitionState::kUnplugged:
          ASSERT_EQ(part.populated_blocks, 0u);
          ASSERT_EQ(part.users, 0u);
          break;
        case PartitionState::kPopulating:
          ASSERT_GT(part.populated_blocks, 0u);
          ASSERT_LT(part.populated_blocks, part.nr_blocks);
          break;
        case PartitionState::kReady:
          ASSERT_EQ(part.populated_blocks, part.nr_blocks);
          ASSERT_EQ(part.users, 0u);
          ASSERT_EQ(part.zone->allocated_pages(), 0u);
          break;
        case PartitionState::kAssigned:
          ASSERT_GT(part.users, 0u);
          ++assigned;
          break;
      }
    }
    ASSERT_EQ(assigned, live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SqueezyFuzzTest,
    testing::Combine(testing::Values(128u, 256u, 768u), testing::Values(2u, 4u, 8u),
                     testing::Values(1u, 2u)),
    [](const testing::TestParamInfo<std::tuple<uint64_t, uint32_t, uint64_t>>&
           param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "mib_n" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

// --- Reclaim-latency monotonicity sweep ----------------------------------------

class ReclaimScalingTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReclaimScalingTest, SqueezyUnplugLinearInBlocks) {
  const uint64_t mib = GetParam();
  HostMemory host(GiB(96));
  CostModel cost = CostModel::Default();
  Hypervisor hv(&host, &cost);
  SqueezyConfig scfg;
  scfg.partition_bytes = mib * MiB(1);
  scfg.nr_partitions = 2;
  scfg.shared_bytes = 0;
  GuestConfig cfg;
  cfg.base_memory = MiB(512);
  cfg.hotplug_region = scfg.region_bytes();
  GuestKernel guest(cfg, &hv);
  SqueezyManager sqz(&guest, scfg);
  guest.PlugMemory(scfg.partition_bytes, 0);
  const UnplugOutcome out = guest.UnplugMemory(scfg.partition_bytes, 0);
  ASSERT_TRUE(out.complete);
  // Latency = request fixed + blocks * (scan + offline + exit).
  const DurationNs per_block = cost.isolate_page * kPagesPerBlock +
                               cost.block_offline_fixed + cost.block_unplug_exit;
  const DurationNs expected =
      cost.unplug_request_fixed +
      static_cast<DurationNs>(BytesToBlocks(mib * MiB(1))) * per_block;
  EXPECT_EQ(out.latency(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReclaimScalingTest,
                         testing::Values(128u, 256u, 512u, 1024u, 1536u, 2048u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return std::to_string(param_info.param) + "mib";
                         });

// --- Timer-wheel fuzz: wheel vs the reference binary heap, op for op -----------

// The determinism contract — events fire in pure (timestamp, scheduling
// sequence) order, cancellations only remove their own event, the clock
// advances identically — must hold for ANY interleaving of ScheduleAt /
// ScheduleAfter / Cancel / AdvanceBy / RunUntil, including events that
// schedule and cancel other events from inside their handlers.  The
// single priority queue the wheel replaced (tests/reference_event_queue.h)
// IS the reference model: both queues replay one random op script and
// must produce identical ids, cancel results, firing logs, clocks and
// pending counts at every checkpoint.
class EventQueueWheelFuzzTest : public testing::TestWithParam<uint64_t> {};

namespace event_queue_fuzz {

struct Op {
  enum Kind { kSchedule, kCancel, kAdvance, kRunUntil } kind;
  int64_t a = 0;  // kSchedule: delay ns (absolute-from-now); kCancel: id
                  // index; kAdvance/kRunUntil: duration ns.
  int tag = 0;    // kSchedule: handler tag.
};

struct Replay {
  std::vector<std::pair<int, TimeNs>> fired;
  std::vector<EventId> ids;
  std::vector<bool> cancel_results;
  std::vector<TimeNs> clocks;      // now() after every RunUntil.
  std::vector<size_t> pendings;    // pending() after every RunUntil.
};

template <typename Queue>
Replay Run(const std::vector<Op>& script) {
  Queue q;
  Replay r;
  // Handlers are pure functions of their tag, so both queues behave
  // identically as long as they fire in the same order.
  std::function<void(int)> on_fire = [&](int tag) {
    r.fired.push_back({tag, q.now()});
    if (tag % 7 == 3) {
      // Nested same-instant + near-future scheduling from a handler.
      const int child = tag + 1000000;
      q.ScheduleAfter((tag % 5) * Usec(300), [&on_fire, child] { on_fire(child); });
    }
    if (tag % 11 == 5 && !r.ids.empty()) {
      // Handler-driven cancellation of an arbitrary earlier id.
      r.cancel_results.push_back(
          q.Cancel(r.ids[static_cast<size_t>(tag) % r.ids.size()]));
    }
  };
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kSchedule: {
        const int tag = op.tag;
        r.ids.push_back(
            q.ScheduleAt(q.now() + op.a, [&on_fire, tag] { on_fire(tag); }));
        break;
      }
      case Op::kCancel:
        if (!r.ids.empty()) {
          r.cancel_results.push_back(
              q.Cancel(r.ids[static_cast<size_t>(op.a) % r.ids.size()]));
        }
        break;
      case Op::kAdvance:
        q.AdvanceBy(op.a);
        break;
      case Op::kRunUntil:
        q.RunUntil(q.now() + op.a);
        r.clocks.push_back(q.now());
        r.pendings.push_back(q.pending());
        break;
    }
  }
  q.RunAll();
  r.clocks.push_back(q.now());
  r.pendings.push_back(q.pending());
  return r;
}

}  // namespace event_queue_fuzz

TEST_P(EventQueueWheelFuzzTest, WheelMatchesHeapReferenceExactly) {
  using event_queue_fuzz::Op;
  const uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<Op> script;
  int next_tag = 0;
  for (int i = 0; i < 600; ++i) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Near-future: lands in the wheel window.
        script.push_back({Op::kSchedule, Msec(rng.UniformInt(0, 2000)), next_tag++});
        break;
      }
      case 4: {  // Far-future: lands in the coarse wheel, cascades in later.
        script.push_back({Op::kSchedule, Sec(rng.UniformInt(3, 120)), next_tag++});
        break;
      }
      case 5: {  // Multi-hour: beyond the ~36 min coarse horizon — lands
                 // in the super wheel (or overflow past its ~26 day span).
        script.push_back({Op::kSchedule, Minutes(rng.UniformInt(30, 2880)), next_tag++});
        break;
      }
      case 6:  // Same-instant pileup: the FIFO contract under load.
        for (int j = 0; j < 4; ++j) {
          script.push_back({Op::kSchedule, Msec(500), next_tag++});
        }
        break;
      case 7:
        script.push_back({Op::kCancel, rng.UniformInt(0, 1 << 20), 0});
        break;
      case 8:  // AdvanceBy can jump the clock past scheduled events.
        script.push_back({Op::kAdvance, Msec(rng.UniformInt(0, 5000)), 0});
        break;
      case 9:
        script.push_back({Op::kRunUntil, Msec(rng.UniformInt(0, 30000)), 0});
        break;
    }
  }
  script.push_back({Op::kRunUntil, Minutes(3), 0});

  const event_queue_fuzz::Replay wheel = event_queue_fuzz::Run<EventQueue>(script);
  const event_queue_fuzz::Replay heap = event_queue_fuzz::Run<ReferenceHeapQueue>(script);

  EXPECT_EQ(wheel.ids, heap.ids);
  EXPECT_EQ(wheel.cancel_results, heap.cancel_results);
  EXPECT_EQ(wheel.clocks, heap.clocks);
  EXPECT_EQ(wheel.pendings, heap.pendings);
  ASSERT_EQ(wheel.fired.size(), heap.fired.size());
  for (size_t i = 0; i < wheel.fired.size(); ++i) {
    EXPECT_EQ(wheel.fired[i], heap.fired[i]) << "divergence at event " << i;
  }
  // Sanity on the scenario itself: events fired and some were cancelled.
  EXPECT_GT(wheel.fired.size(), 100u);
  EXPECT_FALSE(wheel.cancel_results.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueWheelFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Cluster migration fuzz: drain/migrate/undrain sequences -------------------

// Fleet-wide memory conservation must survive ARBITRARY interleavings of
// drains, undrains and pressure migrations while a skewed trace runs:
//   * per host and at every step, committed + free == capacity with
//     committed <= capacity (an unbalanced EvictReplica/AdoptReplica pair
//     would underflow or overflow the book) and populated <= committed;
//   * no replica is double-counted mid-flight: the live instances of a
//     function across the whole fleet never exceed its replica count
//     times the concurrency cap, even while transfers are in flight;
//   * when everything quiesces, every host is back at exactly its
//     boot-time commitment, nothing is in flight, and no instance leaks.
class ClusterMigrationFuzzTest
    : public testing::TestWithParam<std::tuple<ReclaimPolicy, uint64_t /*seed*/>> {};

TEST_P(ClusterMigrationFuzzTest, RandomDrainMigrateUndrainConservesFleetMemory) {
  const auto [reclaim, seed] = GetParam();
  constexpr int kFunctions = 4;
  constexpr uint32_t kConcurrency = 8;

  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.host.policy = reclaim;
  cfg.host.host_capacity = MiB(2560);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  Cluster cluster(cfg);

  FunctionSpec spec;
  spec.name = "fuzz";
  spec.vcpu_shares = 1.0;
  spec.memory_limit = MiB(256);
  spec.anon_working_set = MiB(96);
  spec.file_deps_bytes = MiB(64);
  spec.container_init_cpu = Msec(80);
  spec.function_init_cpu = Msec(120);
  spec.exec_cpu_mean = Msec(100);
  spec.exec_cv = 0.0;

  std::vector<uint64_t> boot(cluster.host_count(), 0);
  for (int f = 0; f < kFunctions; ++f) {
    const int fn = cluster.AddFunction(spec, kConcurrency);
    for (const Replica& r : cluster.replicas(fn)) {
      boot[r.host] += FaasRuntime::BootCommitment(cfg.host, spec, kConcurrency);
    }
  }

  ClusterTraceConfig trace;
  trace.duration = Minutes(6);
  trace.nr_functions = kFunctions;
  trace.total_base_rate_per_sec = 2.0;
  trace.zipf_s = 1.2;
  trace.bursty_fraction = 0.5;
  trace.burst_multiplier = 30.0;
  trace.mean_burst_len = Sec(20);
  trace.mean_gap = Sec(60);
  cluster.SubmitTrace(GenerateClusterTrace(trace, seed));

  Rng rng(seed * 1099511628211ull + 17);
  TimeNs t = 0;
  for (int step = 0; step < 30; ++step) {
    t += Sec(rng.UniformInt(2, 20));
    cluster.RunUntil(t);
    const size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cluster.host_count()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        cluster.DrainHost(h);  // Migrates warm replicas off, then drains.
        break;
      case 1:
        cluster.UndrainHost(h);
        break;
      case 2:
        cluster.MigratePressured();
        break;
      case 3:
        break;  // Let the trace run.
    }
    // Invariants at every step, mid-flight transfers included.
    for (size_t i = 0; i < cluster.host_count(); ++i) {
      const FaasRuntime& host = cluster.host(i);
      ASSERT_LE(host.committed(), host.host_capacity()) << "step " << step;
      ASSERT_EQ(host.host_capacity() - host.committed(), host.host().available());
      ASSERT_LE(host.host().populated(), host.committed()) << "step " << step;
    }
    for (int fn = 0; fn < kFunctions; ++fn) {
      size_t live = 0;
      for (const Replica& r : cluster.replicas(fn)) {
        live += cluster.host(r.host).agent(r.local_fn).live_instances();
      }
      ASSERT_LE(live, cluster.replicas(fn).size() * kConcurrency)
          << "replica double-counted at step " << step;
    }
  }

  // Quiesce: undrain nothing further, let keep-alives expire, transfers
  // land, and every unplug complete.
  cluster.RunAll();
  EXPECT_EQ(cluster.migrations_in_flight(), 0u);
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    // HarvestVM slack would stay plugged at quiescence on non-drained
    // hosts; this fuzz sticks to the slackless drivers, so the book must
    // return to exactly boot.
    EXPECT_EQ(host.committed(), boot[h]) << ReclaimPolicyName(reclaim) << " host " << h;
    EXPECT_LE(host.host().populated(), host.committed());
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u);
    }
  }
  // Migration accounting closed out: everything captured was either
  // adopted somewhere or explicitly dropped.
  uint64_t captured = 0;
  uint64_t adopted = 0;
  for (const MigrationRecord& m : cluster.migrations()) {
    captured += m.captured;
    adopted += m.adopted;
  }
  EXPECT_EQ(adopted, cluster.migrated_instances());
  EXPECT_LE(adopted, captured);
}

INSTANTIATE_TEST_SUITE_P(
    DrainMigrate, ClusterMigrationFuzzTest,
    testing::Combine(testing::Values(ReclaimPolicy::kVirtioMem, ReclaimPolicy::kSqueezy),
                     testing::Values(1u, 2u, 3u, 4u)),
    [](const testing::TestParamInfo<std::tuple<ReclaimPolicy, uint64_t>>& param_info) {
      return std::string(ReclaimPolicyName(std::get<0>(param_info.param))) == "Squeezy"
                 ? "squeezy_s" + std::to_string(std::get<1>(param_info.param))
                 : "virtio_s" + std::to_string(std::get<1>(param_info.param));
    });

// --- Dep-cache fuzz: image residency invariants under drain/migrate churn -------

// Same drain/migrate/undrain storm, now with the cluster-wide shared
// dependency cache on.  Every function uses the SAME spec, so all four
// cluster functions intern to ONE image per host — the boot-dedup,
// sibling-adoption and eviction/re-charge paths all fire.  Invariants:
//   * book conservation per host at every step, including
//     populated <= committed (an image eviction that released commitment
//     without dropping its host backing would break this);
//   * refcount conservation: an image's refcount on a host equals the
//     memory-granted instances of every VM pinned to it, at every step;
//   * population implies residency;
//   * at quiescence the host book is exactly VM bases + plugged units
//     (none) + the registry's charged bytes — nothing leaked in either
//     direction across boot dedups, evictions and re-charges.
class DepCacheFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DepCacheFuzzTest, ResidencyRefcountsAndBooksConserved) {
  const uint64_t seed = GetParam();
  constexpr int kFunctions = 4;
  constexpr uint32_t kConcurrency = 8;

  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.shared_dep_cache = true;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = MiB(2560);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  Cluster cluster(cfg);

  FunctionSpec spec;
  spec.name = "depfuzz";
  spec.vcpu_shares = 1.0;
  spec.memory_limit = MiB(256);
  spec.anon_working_set = MiB(96);
  spec.file_deps_bytes = MiB(64);
  spec.container_init_cpu = Msec(80);
  spec.function_init_cpu = Msec(120);
  spec.exec_cpu_mean = Msec(100);
  spec.exec_cv = 0.0;

  std::vector<uint64_t> base_commit(cluster.host_count(), 0);
  for (int f = 0; f < kFunctions; ++f) {
    const int fn = cluster.AddFunction(spec, kConcurrency);
    for (const Replica& r : cluster.replicas(fn)) {
      base_commit[r.host] += cfg.host.vm_base_memory;
    }
  }
  const DepCache& cache = *cluster.dep_cache();

  ClusterTraceConfig trace;
  trace.duration = Minutes(6);
  trace.nr_functions = kFunctions;
  trace.total_base_rate_per_sec = 2.0;
  trace.zipf_s = 1.2;
  trace.bursty_fraction = 0.5;
  trace.burst_multiplier = 30.0;
  trace.mean_burst_len = Sec(20);
  trace.mean_gap = Sec(60);
  cluster.SubmitTrace(GenerateClusterTrace(trace, seed));

  auto check_residency = [&](int step) {
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      const FaasRuntime& host = cluster.host(h);
      ASSERT_LE(host.committed(), host.host_capacity()) << "step " << step;
      ASSERT_LE(host.host().populated(), host.committed()) << "step " << step;
      // Refcount conservation per image on this host: the image's refs
      // must equal the granted instances of every VM pinned to it.
      std::map<DepImageId, uint64_t> granted;
      for (size_t fn = 0; fn < host.function_count(); ++fn) {
        const DepImageId img = host.dep_image(static_cast<int>(fn));
        ASSERT_NE(img, kNoDepImage);
        granted[img] += host.agent(static_cast<int>(fn)).memory_granted_instances();
      }
      for (const auto& [img, want] : granted) {
        ASSERT_EQ(cache.RefCount(h, img), want) << "host " << h << " step " << step;
        if (cache.Populated(h, img)) {
          ASSERT_TRUE(cache.Resident(h, img)) << "host " << h << " step " << step;
        }
        if (want > 0) {
          ASSERT_TRUE(cache.Resident(h, img))
              << "granted instances on an unresident image, host " << h;
        }
      }
    }
  };

  Rng rng(seed * 6364136223846793005ull + 29);
  TimeNs t = 0;
  for (int step = 0; step < 30; ++step) {
    t += Sec(rng.UniformInt(2, 20));
    cluster.RunUntil(t);
    const size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cluster.host_count()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        cluster.DrainHost(h);
        break;
      case 1:
        cluster.UndrainHost(h);
        break;
      case 2:
        cluster.MigratePressured();
        break;
      case 3:
        break;
    }
    check_residency(step);
  }

  cluster.RunAll();
  check_residency(999);
  EXPECT_EQ(cluster.migrations_in_flight(), 0u);
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    // Quiescence: every instance reaped, every unplug done — the book is
    // exactly the VM bases plus whatever image residencies survived.
    EXPECT_EQ(host.committed(), base_commit[h] + cache.charged_bytes(h))
        << "host " << h;
    EXPECT_LE(host.host().populated(), host.committed());
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u);
      EXPECT_EQ(cache.RefCount(h, host.dep_image(static_cast<int>(fn))), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepCacheFuzzTest, testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Snapshot fuzz: record/evict/restore churn with both registries on -----------

// The DepCacheFuzzTest storm with the snapshot registry on too: every
// cold start after the first fully-warm idle restores from the shared
// slot, so Squeezy plugs full units while reserving only the recorded
// working set (the snapshot_unreserved shortfall pool).  Invariants:
//   * the host book never exceeds capacity and populated <= committed at
//     every step — a restore that discounted commitment without bounding
//     what it populates would break the second;
//   * recorded images describe the spec (heap == anon working set) unless
//     a stale recording is mid-re-record;
//   * at quiescence every discount has unwound through its unplug: the
//     book is exactly VM bases + the dep cache's charged bytes, same as
//     with snapshots off — the discount is a loan, not a leak.
class SnapshotFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotFuzzTest, RestoreDiscountsUnwindUnderDrainMigrateChurn) {
  const uint64_t seed = GetParam();
  constexpr int kFunctions = 4;
  constexpr uint32_t kConcurrency = 8;

  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.shared_dep_cache = true;
  cfg.shared_snapshots = true;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = MiB(2560);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  Cluster cluster(cfg);

  FunctionSpec spec;
  spec.name = "snapfuzz";
  spec.vcpu_shares = 1.0;
  spec.memory_limit = MiB(256);
  spec.anon_working_set = MiB(96);
  spec.file_deps_bytes = MiB(64);
  spec.container_init_cpu = Msec(80);
  spec.function_init_cpu = Msec(120);
  spec.exec_cpu_mean = Msec(100);
  spec.exec_cv = 0.0;

  std::vector<uint64_t> base_commit(cluster.host_count(), 0);
  for (int f = 0; f < kFunctions; ++f) {
    const int fn = cluster.AddFunction(spec, kConcurrency);
    for (const Replica& r : cluster.replicas(fn)) {
      base_commit[r.host] += cfg.host.vm_base_memory;
    }
  }
  const DepCache& cache = *cluster.dep_cache();
  const SnapshotStore& store = *cluster.snapshot_store();

  ClusterTraceConfig trace;
  trace.duration = Minutes(6);
  trace.nr_functions = kFunctions;
  trace.total_base_rate_per_sec = 2.0;
  trace.zipf_s = 1.2;
  trace.bursty_fraction = 0.5;
  trace.burst_multiplier = 30.0;
  trace.mean_burst_len = Sec(20);
  trace.mean_gap = Sec(60);
  cluster.SubmitTrace(GenerateClusterTrace(trace, seed));

  auto check_books = [&](int step) {
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      const FaasRuntime& host = cluster.host(h);
      ASSERT_LE(host.committed(), host.host_capacity()) << "step " << step;
      ASSERT_LE(host.host().populated(), host.committed()) << "step " << step;
      for (size_t fn = 0; fn < host.function_count(); ++fn) {
        const SnapshotId snap = host.snapshot_id(static_cast<int>(fn));
        ASSERT_NE(snap, kNoSnapshot) << "step " << step;
        if (store.Recorded(snap)) {
          ASSERT_EQ(store.Image(snap).heap_bytes, spec.anon_working_set)
              << "step " << step;
        }
      }
    }
  };

  Rng rng(seed * 6364136223846793005ull + 31);
  TimeNs t = 0;
  for (int step = 0; step < 30; ++step) {
    t += Sec(rng.UniformInt(2, 20));
    cluster.RunUntil(t);
    const size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cluster.host_count()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        cluster.DrainHost(h);
        break;
      case 1:
        cluster.UndrainHost(h);
        break;
      case 2:
        cluster.MigratePressured();
        break;
      case 3:
        break;
    }
    check_books(step);
  }

  cluster.RunAll();
  check_books(999);
  // All four cluster functions share one spec, so one snapshot slot; the
  // churn is long enough that it recorded and restored at least once.
  EXPECT_EQ(store.stats().functions, 1u);
  EXPECT_GE(store.stats().recordings, 1u);
  EXPECT_GT(store.stats().restores, 0u);
  EXPECT_GT(store.stats().prefetch_bytes, 0u);
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    EXPECT_EQ(host.committed(), base_commit[h] + cache.charged_bytes(h))
        << "host " << h;
    EXPECT_LE(host.host().populated(), host.committed());
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzzTest, testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Snapshot + migration compose fuzz: delta transfers under churn --------------

// Drain/migrate/undrain churn with BOTH registries on and a drain-heavy
// op mix, so snapshot-hit transfers (recorded portion skips the wire, the
// destination bulk-restores it) interleave with dep-cache hits, stale
// fallbacks and partial adoptions.  Invariants on top of SnapshotFuzzTest:
//   * migration restore accounting never outruns the migrations: every
//     bulk-restored instance is an adopted one, and the wire-saved bytes
//     never exceed the anonymous state the captures actually held —
//     recorded state is discounted once, never double-counted against the
//     dep cache's separate deps_bytes discount;
//   * the fleet books conserve at every step and at quiescence the host
//     book is exactly VM bases + the dep cache's charged images — a
//     migration restore that leaked its bulk-populated pages into the
//     commitment book would break the identity.
class SnapshotMigrationFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotMigrationFuzzTest, DeltaTransfersConserveBooksUnderChurn) {
  const uint64_t seed = GetParam();
  constexpr int kFunctions = 4;
  constexpr uint32_t kConcurrency = 8;

  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = PlacementPolicy::kMemoryAwareBinPack;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.shared_dep_cache = true;
  cfg.shared_snapshots = true;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = MiB(2560);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(45);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  Cluster cluster(cfg);

  FunctionSpec spec;
  spec.name = "snapmigfuzz";
  spec.vcpu_shares = 1.0;
  spec.memory_limit = MiB(256);
  spec.anon_working_set = MiB(96);
  spec.file_deps_bytes = MiB(64);
  spec.container_init_cpu = Msec(80);
  spec.function_init_cpu = Msec(120);
  spec.exec_cpu_mean = Msec(100);
  spec.exec_cv = 0.0;

  std::vector<uint64_t> base_commit(cluster.host_count(), 0);
  for (int f = 0; f < kFunctions; ++f) {
    const int fn = cluster.AddFunction(spec, kConcurrency);
    for (const Replica& r : cluster.replicas(fn)) {
      base_commit[r.host] += cfg.host.vm_base_memory;
    }
  }
  const DepCache& cache = *cluster.dep_cache();
  const SnapshotStore& store = *cluster.snapshot_store();

  ClusterTraceConfig trace;
  trace.duration = Minutes(6);
  trace.nr_functions = kFunctions;
  trace.total_base_rate_per_sec = 2.0;
  trace.zipf_s = 1.2;
  trace.bursty_fraction = 0.5;
  trace.burst_multiplier = 30.0;
  trace.mean_burst_len = Sec(20);
  trace.mean_gap = Sec(60);
  cluster.SubmitTrace(GenerateClusterTrace(trace, seed));

  auto check_invariants = [&](int step) {
    for (size_t h = 0; h < cluster.host_count(); ++h) {
      const FaasRuntime& host = cluster.host(h);
      ASSERT_LE(host.committed(), host.host_capacity()) << "step " << step;
      ASSERT_LE(host.host().populated(), host.committed()) << "step " << step;
    }
    // Migration restore accounting: every bulk-restored instance was an
    // adopted one, and the recorded bytes that skipped the wire never
    // exceed the anonymous state the captures held (each instance's
    // recorded share is bounded by its working set — counting it twice,
    // or counting deps_bytes as recorded, would overflow this bound).
    const SnapshotStats& s = store.stats();
    ASSERT_LE(s.migration_restores, cluster.migrated_instances()) << "step " << step;
    uint64_t captured_anon_cap = 0;
    for (const MigrationRecord& m : cluster.migrations()) {
      captured_anon_cap += static_cast<uint64_t>(m.captured) * spec.anon_working_set;
    }
    ASSERT_LE(s.migration_wire_saved_bytes, captured_anon_cap) << "step " << step;
    ASSERT_GE(s.migration_restores, s.migration_hits) << "step " << step;
  };

  Rng rng(seed * 2862933555777941757ull + 17);
  TimeNs t = 0;
  for (int step = 0; step < 30; ++step) {
    t += Sec(rng.UniformInt(2, 16));
    cluster.RunUntil(t);
    const size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cluster.host_count()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1:
        cluster.DrainHost(h);  // Drain-heavy: the snapshot-hit path's trigger.
        break;
      case 2:
        cluster.UndrainHost(h);
        break;
      case 3:
        cluster.MigratePressured();
        break;
    }
    check_invariants(step);
  }

  cluster.RunAll();
  check_invariants(999);
  // The churn migrated warm state, and at least one transfer shipped only
  // the delta (4 hosts share one recording slot, so destinations hold a
  // valid recording whenever the source's capture is fresh).
  EXPECT_GT(cluster.migrated_instances(), 0u);
  EXPECT_GT(store.stats().migration_hits, 0u);
  EXPECT_GT(store.stats().migration_wire_saved_bytes, 0u);
  // Quiescence: every keep-alive expired and every discount unwound — the
  // book is exactly VM bases + charged dep images, bit-for-bit the same
  // identity the snapshot-off and migration-off fuzzes lock.
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    EXPECT_EQ(host.committed(), base_commit[h] + cache.charged_bytes(h)) << "host " << h;
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      EXPECT_EQ(host.agent(static_cast<int>(fn)).live_instances(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotMigrationFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// --- Churn fuzz: drain/undrain/pressure-migrate under a skewed trace ---------

// One random churn script — drain/undrain/pressure-migrate while a skewed
// trace runs — with the shared registries both attached and detached.
// ChurnDigestIsLocked pins each run's fleet digest (per-request firing
// logs, cold-start breakdowns, host books, migration records, the
// routing hash and the fleet summary) to a recorded hash, and
// PerEventPlacementOracleTest steps the same scripts event by event.
namespace churn_fuzz {

// Byte-comparable dump of everything observable about a finished run.
// Doubles print as hexfloat so equal digests mean bit-equal values.
inline std::string FleetDigest(Cluster& cluster, TimeNs horizon) {
  std::ostringstream os;
  os << std::hexfloat;
  os << "hash " << cluster.routing_hash() << " unplaced "
     << cluster.unplaced_invocations() << " migrated "
     << cluster.migrated_instances() << " reaped "
     << cluster.migration_reaped_instances() << " inflight "
     << cluster.migrations_in_flight() << "\n";
  for (const MigrationRecord& m : cluster.migrations()) {
    os << "mig " << m.cluster_fn << " " << m.src_host << ">" << m.dst_host << " cap "
       << m.captured << " ad " << m.adopted << " bytes " << m.bytes_sent << " down "
       << m.downtime << " t " << m.started_at << ".." << m.done_at << "\n";
  }
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    os << "host " << h << " committed " << host.committed() << " populated "
       << host.host().populated() << " routed " << cluster.routed_to(h) << " pending "
       << host.total_pending_scaleups() << "\n";
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      const Agent& agent = host.agent(static_cast<int>(fn));
      os << " fn " << fn << " spawns " << agent.total_spawns() << " evict "
         << agent.total_evictions() << " live " << agent.live_instances() << "\n";
      for (const RequestRecord& r : agent.requests()) {
        os << "  req " << r.arrival << " " << r.done << " " << r.cold << "\n";
      }
      for (const ColdStartBreakdown& c : agent.cold_starts()) {
        os << "  cold " << c.vmm << " " << c.container_init << " " << c.function_init
           << " " << c.first_exec << "\n";
      }
    }
  }
  const FleetSummary s = cluster.Summarize(horizon);
  os << "sum req " << s.completed_requests << " cold " << s.cold_starts << " evict "
     << s.evictions << " pend " << s.pending_scaleups_total << " unplug "
     << s.unplug_failures << " p50 " << s.latency_p50 << " p99 " << s.latency_p99
     << " mean " << s.latency_mean << " peak " << s.committed_peak << " gibs "
     << s.committed_gib_seconds << "\n";
  return os.str();
}

// Called after every event of a stepped run (and after each churn op).
using EventHook = std::function<void(Cluster&)>;

// Runs the cluster's single queue to `t` one event at a time, calling
// `hook` after each — the same firing order and final clock as
// Cluster::RunUntil(t).
inline void StepUntil(Cluster& cluster, TimeNs t, const EventHook& hook) {
  EventQueue& q = cluster.events();
  TimeNs when = 0;
  uint64_t seq = 0;
  while (q.PeekNext(&when, &seq) && when <= t) {
    q.RunOne();
    hook(cluster);
  }
  q.SyncNow(t);
}

// One full churn run: build the fleet, run the trace with random
// drain/undrain/pressure churn, quiesce, digest.  Every input is a pure
// function of (registries, seed, policy, base rate).  With a `hook` the
// run is stepped event by event and the hook observes the fleet after
// every event and churn op; it must not change the digest.  The replica
// transfers MigratePressured starts are added to `pressure_migrations`.
inline std::string RunChurn(bool registries, uint64_t seed,
                            PlacementPolicy policy = PlacementPolicy::kMemoryAwareBinPack,
                            const EventHook& hook = nullptr,
                            double base_rate_per_sec = 2.0,
                            size_t* pressure_migrations = nullptr) {
  constexpr int kFunctions = 4;
  constexpr uint32_t kConcurrency = 8;
  ClusterConfig cfg;
  cfg.nr_hosts = 4;
  cfg.placement = policy;
  cfg.migration = MigrationMode::kMigrateOnDrain;
  cfg.pressure_migrate_min_pending = 1;
  cfg.shared_dep_cache = registries;
  cfg.shared_snapshots = registries;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = MiB(2560);
  cfg.host.vm_base_memory = MiB(128);
  cfg.host.keep_alive = Sec(30);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  Cluster cluster(cfg);

  FunctionSpec spec;
  spec.name = "shard_fuzz";
  spec.vcpu_shares = 1.0;
  spec.memory_limit = MiB(256);
  spec.anon_working_set = MiB(96);
  spec.file_deps_bytes = MiB(64);
  spec.container_init_cpu = Msec(80);
  spec.function_init_cpu = Msec(120);
  spec.exec_cpu_mean = Msec(100);
  spec.exec_cv = 0.0;
  for (int f = 0; f < kFunctions; ++f) {
    cluster.AddFunction(spec, kConcurrency);
  }

  ClusterTraceConfig trace;
  trace.duration = Minutes(4);
  trace.nr_functions = kFunctions;
  trace.total_base_rate_per_sec = base_rate_per_sec;
  trace.zipf_s = 1.2;
  trace.bursty_fraction = 0.5;
  trace.burst_multiplier = 30.0;
  trace.mean_burst_len = Sec(20);
  trace.mean_gap = Sec(60);
  cluster.SubmitTrace(GenerateClusterTrace(trace, seed));

  Rng rng(seed * 1099511628211ull + 29);
  TimeNs t = 0;
  for (int step = 0; step < 24; ++step) {
    t += Sec(rng.UniformInt(2, 15));
    if (hook) {
      StepUntil(cluster, t, hook);
    } else {
      cluster.RunUntil(t);
    }
    const size_t h = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(cluster.host_count()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        cluster.DrainHost(h);
        break;
      case 1:
        cluster.UndrainHost(h);
        break;
      case 2: {
        const size_t started = cluster.MigratePressured();
        if (pressure_migrations != nullptr) {
          *pressure_migrations += started;
        }
        break;
      }
      case 3:
        break;  // Let the trace run.
    }
    if (hook) {
      hook(cluster);
    }
  }
  if (hook) {
    while (cluster.events().RunOne()) {
      hook(cluster);
    }
  } else {
    cluster.RunAll();
  }
  return FleetDigest(cluster, Minutes(6));
}

}  // namespace churn_fuzz

// 64-bit FNV-1a over the digest bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(ChurnFuzzTest, ChurnDigestIsLocked) {
  // Recorded from the churn runs; a deliberate behaviour change
  // re-records them with PARITY_DUMP=1 ./property_test
  // --gtest_filter='ChurnFuzzTest.*'.
  struct Golden {
    bool registries;
    uint64_t seed;
    uint64_t digest_hash;
  };
  constexpr Golden kGolden[] = {
      {false, 1, 0x5241f9172fee8611ULL}, {false, 2, 0x8b6ab7e49ee82035ULL},
      {false, 3, 0x42e8818138e74c45ULL}, {true, 1, 0x0cca1acea0cd3aebULL},
      {true, 2, 0x763ef5500a65d98eULL},  {true, 3, 0x30020ab919b0b006ULL},
  };
  const bool dump = std::getenv("PARITY_DUMP") != nullptr;
  for (const Golden& g : kGolden) {
    const uint64_t got = Fnv1a(churn_fuzz::RunChurn(g.registries, g.seed));
    if (dump) {
      std::cout << "{" << (g.registries ? "true" : "false") << ", " << g.seed << ", 0x"
                << std::hex << got << std::dec << "ULL},\n";
    }
    EXPECT_EQ(got, g.digest_hash) << "registries " << (g.registries ? "on" : "off")
                                  << ", seed " << g.seed;
  }
}

TEST(ChurnFuzzTest, PressureMigrationDigestIsLocked) {
  // In the six scenarios above MigratePressured never transfers a
  // replica: a host keeps pending scale-ups only while it is full and the
  // drains have left it (nearly) the last undrained host, so the pass
  // finds no host at all, or a victim with every warm instance busy, or
  // no undrained destination with room.  At twice the base rate a
  // registry-free seed-1 run gets a pressured host with idle replicas
  // and a destination that adopts them.  Recorded like the table above.
  size_t pressure_migrations = 0;
  const uint64_t got =
      Fnv1a(churn_fuzz::RunChurn(false, 1, PlacementPolicy::kMemoryAwareBinPack, nullptr,
                                 4.0, &pressure_migrations));
  if (std::getenv("PARITY_DUMP") != nullptr) {
    std::cout << "pressure 0x" << std::hex << got << std::dec << "ULL, "
              << pressure_migrations << " transfers\n";
  }
  EXPECT_GT(pressure_migrations, 0u);
  EXPECT_EQ(got, 0x9a8fd0c05a0c2fc3ULL);
}

// --- Per-event placement oracle: every HostIndex query vs the scan ------------
//
// The placement index's whole contract is "every query equals a full scan
// over the hosts' live books" (src/cluster/host_index.h).  The churn
// fuzz's script — drains, undrains and pressure migrations
// interleaved with a skewed trace, i.e. every operation that mutates the
// index mid-run — is stepped one event at a time for every placement
// policy, with the shared registries both on (snapshot restores and
// dep-cache adoption change which hosts can admit) and off.  After every
// event and churn op, every query (rows, bin-pack pick under the hosts'
// live CanAdmitNow, least-committed tied set, round-robin members,
// placement candidates, pressure victim) must equal the scan oracle
// (tests/placement_scan_oracle.h) over FaasRuntime's public books.  Each
// event routes at most once, and the state a Route reads is the state
// after the previous event, so this covers every decision instant.  The
// stepped run's digest must equal a plain RunUntil run's: the checks are
// read-only.
class PerEventPlacementOracleTest
    : public testing::TestWithParam<std::tuple<PlacementPolicy, bool /*registries*/>> {};

TEST_P(PerEventPlacementOracleTest, EveryIndexQueryMatchesTheScanAfterEveryEvent) {
  const auto [policy, registries] = GetParam();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    uint64_t checks = 0;
    uint64_t decisions = 0;
    testing::AssertionResult first_mismatch = testing::AssertionSuccess();
    const churn_fuzz::EventHook check = [&](Cluster& cluster) {
      ++checks;
      decisions = cluster.scheduler().decisions();
      if (!first_mismatch) {
        return;  // Report the first divergence, not its echoes.
      }
      std::vector<std::vector<size_t>> fn_hosts(cluster.function_count());
      std::vector<uint64_t> needs = {0};
      for (size_t fn = 0; fn < fn_hosts.size(); ++fn) {
        for (const Replica& r : cluster.replicas(static_cast<int>(fn))) {
          fn_hosts[fn].push_back(r.host);
        }
      }
      const std::vector<scan_oracle::Row> rows = scan_oracle::RowsOf(cluster);
      for (const scan_oracle::Row& row : rows) {
        needs.push_back(row.available());  // Exact-fit boundaries.
      }
      const auto can_admit = [&](int fn, size_t i) {
        const Replica& r = cluster.replicas(fn)[i];
        return cluster.host(r.host).CanAdmitNow(r.local_fn);
      };
      first_mismatch = scan_oracle::IndexMatchesScan(cluster.host_index(), rows, fn_hosts,
                                                     can_admit, needs, {0, 1, 2, 4});
      if (!first_mismatch) {
        first_mismatch << " diverged at check " << checks
                       << ", t=" << cluster.events().now();
      }
    };
    const std::string stepped = churn_fuzz::RunChurn(registries, seed, policy, check);
    const std::string plain = churn_fuzz::RunChurn(registries, seed, policy);
    const std::string where = std::string(PlacementPolicyName(policy)) + ", registries " +
                              (registries ? "on" : "off") + ", seed " +
                              std::to_string(seed);
    EXPECT_TRUE(first_mismatch) << where;
    EXPECT_EQ(stepped, plain) << "the oracle checks changed the run (" << where << ")";
    EXPECT_GT(decisions, 0u) << where;
    EXPECT_GE(checks, decisions) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, PerEventPlacementOracleTest,
    testing::Combine(testing::Values(PlacementPolicy::kRoundRobin,
                                     PlacementPolicy::kLeastCommitted,
                                     PlacementPolicy::kMemoryAwareBinPack,
                                     PlacementPolicy::kHintedBinPack),
                     testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<PlacementPolicy, bool>>& param_info) {
      return std::string(PlacementPolicyName(std::get<0>(param_info.param))) + "_" +
             (std::get<1>(param_info.param) ? "registries" : "plain");
    });

}  // namespace
}  // namespace squeezy
