// Unit tests for host memory accounting and the hypervisor model.
#include <gtest/gtest.h>

#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"

namespace squeezy {
namespace {

TEST(HostMemoryTest, ReserveWithinCapacity) {
  HostMemory host(GiB(4));
  EXPECT_TRUE(host.TryReserve(GiB(3), 0));
  EXPECT_EQ(host.committed(), GiB(3));
  EXPECT_EQ(host.available(), GiB(1));
  EXPECT_FALSE(host.TryReserve(GiB(2), 0));  // Would exceed capacity.
  EXPECT_EQ(host.committed(), GiB(3));       // Unchanged on failure.
  EXPECT_TRUE(host.TryReserve(GiB(1), 0));   // Exact fit.
  EXPECT_EQ(host.available(), 0u);
}

TEST(HostMemoryTest, ReleaseReservation) {
  HostMemory host(GiB(4));
  ASSERT_TRUE(host.TryReserve(GiB(2), 0));
  host.ReleaseReservation(GiB(1), Sec(1));
  EXPECT_EQ(host.committed(), GiB(1));
}

TEST(HostMemoryTest, PopulationTracksPeak) {
  HostMemory host(GiB(4));
  host.Populate(GiB(1), 0);
  host.Populate(GiB(2), Sec(1));
  EXPECT_EQ(host.populated(), GiB(3));
  host.Unpopulate(GiB(2), Sec(2));
  EXPECT_EQ(host.populated(), GiB(1));
  EXPECT_EQ(host.populated_peak(), GiB(3));
}

TEST(HostMemoryTest, SeriesRecordTimestamps) {
  HostMemory host(GiB(4));
  host.Populate(MiB(100), Sec(1));
  host.Populate(MiB(100), Sec(2));
  host.Unpopulate(MiB(50), Sec(3));
  const StepSeries& s = host.populated_series();
  EXPECT_DOUBLE_EQ(s.At(Sec(1)), static_cast<double>(MiB(100)));
  EXPECT_DOUBLE_EQ(s.At(Sec(2)), static_cast<double>(MiB(200)));
  EXPECT_DOUBLE_EQ(s.At(Sec(4)), static_cast<double>(MiB(150)));
}

class HypervisorTest : public testing::Test {
 protected:
  HostMemory host_{GiB(8)};
  CostModel cost_ = CostModel::Default();
  CpuAccountant cpu_{Sec(1)};
  Hypervisor hv_{&host_, &cost_, &cpu_};
};

TEST_F(HypervisorTest, RegisterVmAssignsIds) {
  const VmId a = hv_.RegisterVm("vm-a", 2);
  const VmId b = hv_.RegisterVm("vm-b", 4);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(hv_.stats(a).name, "vm-a");
  EXPECT_EQ(hv_.stats(b).vcpus, 4u);
}

TEST_F(HypervisorTest, NestedFaultPopulates) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  const DurationNs lat = hv_.NestedFaultPopulate(vm, 3, MiB(6), 0);
  EXPECT_EQ(lat, 3 * cost_.nested_fault_exit);
  EXPECT_EQ(hv_.stats(vm).nested_faults, 3u);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, MiB(6));
  EXPECT_EQ(host_.populated(), MiB(6));
}

TEST_F(HypervisorTest, BatchedFaultsBookLikeSeparateFaults) {
  // N same-instant faults booked as one call leave every book as N calls
  // would, the vmm thread's busy windows included (the faults straddle a
  // window boundary).
  HostMemory twin_host(GiB(8));
  CpuAccountant twin_cpu(Sec(1));
  Hypervisor twin(&twin_host, &cost_, &twin_cpu);
  const VmId vm = hv_.RegisterVm("vm", 1);
  const VmId twin_vm = twin.RegisterVm("vm", 1);
  const TimeNs now = Sec(2) - 100;
  DurationNs separate = 0;
  for (int i = 0; i < 5; ++i) {
    separate += twin.NestedFaultPopulate(twin_vm, 2, MiB(1), now);
  }
  EXPECT_EQ(hv_.NestedFaultPopulate(vm, 2, MiB(5), now, 5), separate);
  EXPECT_EQ(hv_.stats(vm).nested_faults, twin.stats(twin_vm).nested_faults);
  EXPECT_EQ(hv_.stats(vm).exits, twin.stats(twin_vm).exits);
  EXPECT_EQ(hv_.stats(vm).exit_time, twin.stats(twin_vm).exit_time);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, twin.stats(twin_vm).populated_bytes);
  EXPECT_EQ(host_.populated_series().points().size(),
            twin_host.populated_series().points().size());
  EXPECT_EQ(host_.populated(), twin_host.populated());
  EXPECT_EQ(cpu_.Series("vmm/vm"), twin_cpu.Series("vmm/vm"));
  EXPECT_EQ(cpu_.TotalBusy("vmm/vm"), twin_cpu.TotalBusy("vmm/vm"));
}

TEST_F(HypervisorTest, AckUnplugReleasesBacking) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 64, kMemoryBlockBytes, 0);
  const DurationNs lat = hv_.AckUnplugBlock(vm, kMemoryBlockBytes, Sec(1));
  EXPECT_EQ(lat, cost_.block_unplug_exit);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, 0u);
  EXPECT_EQ(host_.populated(), 0u);
}

TEST_F(HypervisorTest, BalloonReleaseAccountsPages) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 1, PagesToBytes(100), 0);
  const DurationNs lat = hv_.BalloonRelease(vm, 100, 0);
  EXPECT_EQ(lat, 100 * cost_.balloon_exit_page);
  EXPECT_EQ(host_.populated(), 0u);
}

TEST_F(HypervisorTest, GroupedBalloonReportsBookLikeSeparateReports) {
  // N same-instant balloon reports booked as one call leave every book as
  // N calls would, zero-page reports (a timeline marker) included.
  HostMemory twin_host(GiB(8));
  CpuAccountant twin_cpu(Sec(1));
  Hypervisor twin(&twin_host, &cost_, &twin_cpu);
  const VmId vm = hv_.RegisterVm("vm", 1);
  const VmId twin_vm = twin.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 1, MiB(4), 0);
  twin.NestedFaultPopulate(twin_vm, 1, MiB(4), 0);
  const TimeNs now = Sec(3) - 10;
  for (const uint64_t pages : {uint64_t{cost_.balloon_batch_pages}, uint64_t{7}, uint64_t{0}}) {
    DurationNs separate = 0;
    for (int i = 0; i < 3; ++i) {
      separate += twin.BalloonRelease(twin_vm, pages, now);
    }
    EXPECT_EQ(hv_.BalloonRelease(vm, pages, now, 3), separate);
  }
  EXPECT_EQ(hv_.stats(vm).exits, twin.stats(twin_vm).exits);
  EXPECT_EQ(hv_.stats(vm).exit_time, twin.stats(twin_vm).exit_time);
  EXPECT_EQ(hv_.stats(vm).populated_bytes, twin.stats(twin_vm).populated_bytes);
  EXPECT_EQ(host_.populated_series().points().size(),
            twin_host.populated_series().points().size());
  EXPECT_EQ(host_.populated(), twin_host.populated());
  EXPECT_EQ(cpu_.Series("vmm/vm"), twin_cpu.Series("vmm/vm"));
  EXPECT_EQ(cpu_.TotalBusy("vmm/vm"), twin_cpu.TotalBusy("vmm/vm"));
}

TEST_F(HypervisorTest, ReleaseAllPopulatedOnTeardown) {
  const VmId vm = hv_.RegisterVm("vm", 1);
  hv_.NestedFaultPopulate(vm, 10, MiB(20), 0);
  hv_.ReleaseAllPopulated(vm, Sec(2));
  EXPECT_EQ(hv_.stats(vm).populated_bytes, 0u);
  EXPECT_EQ(host_.populated(), 0u);
}

TEST_F(HypervisorTest, HostThreadCpuCharged) {
  const VmId vm = hv_.RegisterVm("vm-x", 1);
  hv_.NestedFaultPopulate(vm, 1000, MiB(2), 0);
  EXPECT_GT(cpu_.TotalBusy("vmm/vm-x"), 0);
}

}  // namespace
}  // namespace squeezy
