// Unit tests for the simulation kernel: time, RNG, event queue, CPU
// accounting, cost model helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/cpu_accountant.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace squeezy {
namespace {

// --- Time -----------------------------------------------------------------

TEST(TimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(Sec(1.0), kSecond);
  EXPECT_EQ(Msec(1.0), kMillisecond);
  EXPECT_EQ(Usec(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(ToSec(Sec(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(ToMsec(Msec(617)), 617.0);
  EXPECT_DOUBLE_EQ(ToUsec(Usec(3.5)), 3.5);
}

TEST(TimeTest, FormatPicksNaturalUnit) {
  EXPECT_EQ(FormatDuration(Sec(1.27)), "1.27 s");
  EXPECT_EQ(FormatDuration(Msec(617)), "617.00 ms");
  EXPECT_EQ(FormatDuration(Usec(42)), "42.00 us");
  EXPECT_EQ(FormatDuration(5), "5 ns");
}

TEST(CostModelTest, ByteAndPageConversions) {
  EXPECT_EQ(BytesToPages(1), 1u);
  EXPECT_EQ(BytesToPages(kPageSize), 1u);
  EXPECT_EQ(BytesToPages(kPageSize + 1), 2u);
  EXPECT_EQ(PagesToBytes(kPagesPerBlock), kMemoryBlockBytes);
  EXPECT_EQ(BytesToBlocks(GiB(2)), 16u);
  EXPECT_EQ(BytesToBlocks(MiB(768)), 6u);
  EXPECT_EQ(BytesToBlocks(1), 1u);
}

TEST(CostModelTest, DerivedHelpers) {
  const CostModel m = CostModel::Default();
  EXPECT_EQ(m.BalloonPerPage(), m.balloon_guest_page + m.balloon_exit_page);
  EXPECT_EQ(m.MigrateFolio(512), m.migrate_folio_fixed + 512 * m.migrate_page);
  EXPECT_EQ(m.ZeroPages(1000), 1000 * m.zero_page);
  EXPECT_EQ(CostModel::NoZeroing().zero_page, 0);
}

// --- RNG -------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, PoissonMeanConvergesSmall) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(3.5));
  }
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(RngTest, PoissonMeanConvergesLarge) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Poisson(100.0));
  }
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalMeanConverges) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(4.0, 0.5);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.08);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v.begin(), v.end());
  EXPECT_NE(v, orig);  // Astronomically unlikely to be identity.
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Chance(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- EventQueue ----------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Sec(3), [&] { order.push_back(3); });
  q.ScheduleAt(Sec(1), [&] { order.push_back(1); });
  q.ScheduleAt(Sec(2), [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Sec(3));
}

TEST(EventQueueTest, SameInstantFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(Sec(1), [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  TimeNs fired_at = -1;
  q.ScheduleAt(Sec(5), [&] { q.ScheduleAfter(Sec(2), [&] { fired_at = q.now(); }); });
  q.RunAll();
  EXPECT_EQ(fired_at, Sec(7));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.ScheduleAt(Sec(1), [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel is a no-op.
  q.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueueTest, CancelAfterRunReturnsFalseAndConservesPending) {
  EventQueue q;
  const EventId ran = q.ScheduleAt(Sec(1), [] {});
  const EventId live = q.ScheduleAt(Sec(5), [] {});
  q.RunUntil(Sec(2));
  ASSERT_EQ(q.pending(), 1u);
  // The documented contract: cancelling an already-run id must fail and
  // leave the books alone (the old lazy-tombstone set decremented
  // live_count_ here, making pending()/empty() lie forever after).
  EXPECT_FALSE(q.Cancel(ran));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_TRUE(q.Cancel(live));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelBogusIdDoesNotCorruptBooks) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(Sec(1), [&] { ran = true; });
  EXPECT_FALSE(q.Cancel(424242));  // Never issued.
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(ran);  // A bogus cancel must not tombstone a real event.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, DoubleCancelSecondFails) {
  EventQueue q;
  const EventId a = q.ScheduleAt(Sec(1), [] {});
  q.ScheduleAt(Sec(2), [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.Cancel(a));  // Second cancel: no-op, books unchanged.
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, PendingStaysConservedAcrossMixedOps) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.ScheduleAt(Sec(i + 1), [] {}));
  }
  EXPECT_EQ(q.pending(), 8u);
  EXPECT_TRUE(q.Cancel(ids[3]));
  EXPECT_TRUE(q.Cancel(ids[6]));
  EXPECT_FALSE(q.Cancel(ids[3]));
  EXPECT_EQ(q.pending(), 6u);
  q.RunUntil(Sec(4));  // Runs 1, 2, 3 (4 was cancelled).
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_FALSE(q.Cancel(ids[0]));  // Already ran.
  EXPECT_FALSE(q.Cancel(ids[6]));  // Already cancelled.
  EXPECT_FALSE(q.Cancel(999999));  // Never issued.
  EXPECT_EQ(q.pending(), 3u);
  q.RunAll();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Sec(1), [&] { order.push_back(1); });
  q.ScheduleAt(Sec(10), [&] { order.push_back(10); });
  q.RunUntil(Sec(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), Sec(5));
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST(EventQueueTest, EventsScheduledWhileDrainingRun) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.ScheduleAfter(Sec(1), chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), Sec(4));
}

TEST(EventQueueTest, AdvanceByMovesClockWithoutRunning) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(Sec(1), [&] { ran = true; });
  q.AdvanceBy(Sec(2));
  EXPECT_EQ(q.now(), Sec(2));
  EXPECT_FALSE(ran);
  q.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), Sec(2));  // Past-due event runs at current time.
}

TEST(EventQueueTest, PastDeadlineScheduleClampsToNow) {
  EventQueue q;
  q.AdvanceBy(Sec(10));
  TimeNs fired = -1;
  q.ScheduleAt(Sec(1), [&] { fired = q.now(); });
  q.RunAll();
  EXPECT_EQ(fired, Sec(10));
}

TEST(EventQueueTest, CancelHeavyWorkloadKeepsStorageBounded) {
  // Lazy cancellation must not grow the queue without bound: tombstones
  // (and the closures they own) are compacted once they outnumber live
  // entries, instead of lingering until naturally popped.  The old
  // behavior kept every cancelled entry until its timestamp drained, so
  // this loop would have held ~200k dead closures (and their payloads).
  EventQueue q;
  auto payload = std::make_shared<int>(7);  // Owned by every dead closure.
  std::vector<EventId> live;
  for (int i = 0; i < 16; ++i) {
    live.push_back(q.ScheduleAt(Minutes(60) + Sec(i), [] {}));
  }
  for (int i = 0; i < 200000; ++i) {
    const EventId id =
        q.ScheduleAt(Sec(1) + Msec(i % 50000), [payload] { ++*payload; });
    ASSERT_TRUE(q.Cancel(id));
    // Live set and storage stay bounded at every step, not just at the end.
    ASSERT_EQ(q.pending(), 16u);
    ASSERT_LE(q.stored_entries(), 2 * q.pending() + 64);
  }
  // All but the last (not-yet-compacted) few dead closures were freed;
  // without compaction this would be ~200001.
  EXPECT_LE(payload.use_count(), 65);
  q.RunAll();
  EXPECT_EQ(*payload, 7);  // None of the cancelled events ever ran.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stored_entries(), 0u);
}

TEST(EventQueueTest, CompactionPreservesFiringOrder) {
  // Force compactions mid-stream and check survivors still fire in exact
  // (when, seq) order across wheel slots and the overflow heap.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 512; ++i) {
    // Mix of near-window and far-future timestamps.
    const TimeNs when = (i % 3 == 0) ? Msec(10 + i) : Sec(30) + Msec(i);
    ids.push_back(q.ScheduleAt(when, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 512; i += 2) {
    ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  ASSERT_LE(q.stored_entries(), 2 * q.pending() + 64);
  q.RunAll();
  ASSERT_EQ(fired.size(), 256u);
  // Survivors (odd i) must appear in (when, seq) order: rebuild expected.
  std::vector<std::pair<std::pair<TimeNs, int>, int>> expect;
  for (int i = 1; i < 512; i += 2) {
    const TimeNs when = (i % 3 == 0) ? Msec(10 + i) : Sec(30) + Msec(i);
    expect.push_back({{when, i}, i});
  }
  std::sort(expect.begin(), expect.end());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].second) << i;
  }
}

TEST(EventQueueTest, SuperWheelOrdersMultiHourTimestamps) {
  // Timestamps far beyond the coarse wheel's ~36 min horizon land in the
  // third (super) wheel level; mixed near/coarse/super/overflow schedules
  // must still fire in exact (when, seq) order.  Before the super level,
  // every multi-hour event sat in the overflow heap — multi-hour traces
  // degenerated to the pre-wheel kernel.
  EventQueue q;
  std::vector<int> fired;
  std::vector<TimeNs> whens;
  int tag = 0;
  for (int i = 0; i < 40; ++i) {
    whens.push_back(Msec(5 + 17 * i));             // Fine wheel.
    whens.push_back(Sec(40) + Msec(13 * i));       // Coarse wheel.
    whens.push_back(Minutes(90) + Sec(7 * i));     // Super wheel.
    whens.push_back(Minutes(60 * 30) + Sec(3 * i));  // Deep super (30 h).
  }
  for (const TimeNs when : whens) {
    const int t = tag++;
    q.ScheduleAt(when, [&fired, t] { fired.push_back(t); });
  }
  q.RunAll();
  ASSERT_EQ(fired.size(), whens.size());
  std::vector<std::pair<TimeNs, int>> expect;
  for (size_t i = 0; i < whens.size(); ++i) {
    expect.push_back({whens[i], static_cast<int>(i)});
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].second) << i;
  }
  EXPECT_EQ(q.now(), whens.back());
}

TEST(EventQueueTest, SuperWheelHandlerChainsAcrossHorizons) {
  // A handler firing hours in scheduling more work near and far keeps
  // working: the super wheel dumps into coarse, coarse into fine, and
  // freshly scheduled events route against the advanced cursor.
  EventQueue q;
  std::vector<std::pair<int, TimeNs>> fired;
  q.ScheduleAt(Minutes(100), [&] {
    fired.push_back({0, q.now()});
    q.ScheduleAfter(Msec(2), [&] { fired.push_back({1, q.now()}); });
    q.ScheduleAfter(Minutes(200), [&] { fired.push_back({2, q.now()}); });
  });
  q.ScheduleAt(Minutes(250), [&] { fired.push_back({3, q.now()}); });
  q.RunAll();
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], (std::pair<int, TimeNs>{0, Minutes(100)}));
  EXPECT_EQ(fired[1], (std::pair<int, TimeNs>{1, Minutes(100) + Msec(2)}));
  EXPECT_EQ(fired[2], (std::pair<int, TimeNs>{3, Minutes(250)}));
  EXPECT_EQ(fired[3], (std::pair<int, TimeNs>{2, Minutes(300)}));
}

TEST(EventQueueTest, SuperWheelCancelAndCompactStayBounded) {
  // Cancel-heavy churn across all three wheel levels: lazy deletion plus
  // compaction keeps storage proportional to live events even when the
  // dead ones sit hours out.
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 4096; ++i) {
    const TimeNs when = Minutes(30 + i) + Msec(i);
    ids.push_back(q.ScheduleAt(when, [&fired] { ++fired; }));
    if (i % 2 == 1) {
      ASSERT_TRUE(q.Cancel(ids.back()));
    }
    ASSERT_LE(q.stored_entries(), 2 * q.pending() + 64);
  }
  q.RunAll();
  EXPECT_EQ(fired, 2048);
  EXPECT_EQ(q.stored_entries(), 0u);
}

TEST(EventQueueTest, PeekNextAndSyncNowCoordinatorContract) {
  // The stepping primitives PerEventPlacementOracleTest drives the fleet
  // with: PeekNext reports the exact (when, seq) head without running it,
  // RunOne fires precisely one event, and SyncNow only ever moves the
  // clock forward.
  EventQueue q;
  std::vector<int> fired;
  q.ScheduleAt(Msec(5), [&] { fired.push_back(0); });
  q.ScheduleAt(Msec(5), [&] { fired.push_back(1); });
  q.ScheduleAt(Sec(2), [&] { fired.push_back(2); });
  TimeNs when = 0;
  uint64_t seq = 0;
  ASSERT_TRUE(q.PeekNext(&when, &seq));
  EXPECT_EQ(when, Msec(5));
  const uint64_t first_seq = seq;
  ASSERT_TRUE(q.RunOne());
  EXPECT_EQ(fired, (std::vector<int>{0}));
  ASSERT_TRUE(q.PeekNext(&when, &seq));
  EXPECT_EQ(when, Msec(5));
  EXPECT_GT(seq, first_seq);  // Same instant, later seq: FIFO tiebreak.
  q.SyncNow(Sec(1));
  EXPECT_EQ(q.now(), Sec(1));
  q.SyncNow(Msec(1));  // Never backwards.
  EXPECT_EQ(q.now(), Sec(1));
  q.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(q.PeekNext(&when, &seq));
  EXPECT_FALSE(q.RunOne());
}

// --- CpuAccountant ----------------------------------------------------------------

TEST(CpuAccountantTest, SingleWindowUtilization) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("t", Msec(100), Msec(500));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", Msec(200)), 50.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", Sec(2)), 0.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("other", 0), 0.0);
}

TEST(CpuAccountantTest, BusySpanSplitsAcrossWindows) {
  CpuAccountant cpu(Sec(1));
  // 0.5s..2.5s busy: windows get 50%, 100%, 50%.
  cpu.AddBusy("t", Msec(500), Sec(2));
  const std::vector<double> series = cpu.Series("t");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 50.0);
  EXPECT_DOUBLE_EQ(series[1], 100.0);
  EXPECT_DOUBLE_EQ(series[2], 50.0);
  EXPECT_EQ(cpu.TotalBusy("t"), Sec(2));
}

TEST(CpuAccountantTest, MultipleThreadsIndependent) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("a", 0, Msec(250));
  cpu.AddBusy("b", 0, Msec(750));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("a", 0), 25.0);
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("b", 0), 75.0);
  EXPECT_EQ(cpu.threads().size(), 2u);
}

TEST(CpuAccountantTest, AccumulatesWithinWindow) {
  CpuAccountant cpu(Sec(1));
  cpu.AddBusy("t", 0, Msec(100));
  cpu.AddBusy("t", Msec(500), Msec(100));
  EXPECT_DOUBLE_EQ(cpu.UtilizationAt("t", 0), 20.0);
}

TEST(CpuAccountantTest, RepeatCountMatchesSeparateCharges) {
  // Each of the N intervals starts a few ns before a window boundary and
  // splits across it on its own; one interval of N * busy would not.
  const TimeNs start = Sec(3) - 5;
  const DurationNs busy = Usec(2);
  const int64_t n = 7;
  CpuAccountant separate(Sec(1));
  CpuAccountant repeated(Sec(1));
  for (int64_t i = 0; i < n; ++i) {
    separate.AddBusy("t", start, busy);
  }
  repeated.AddBusy("t", start, busy, n);
  EXPECT_EQ(repeated.Series("t"), separate.Series("t"));
  EXPECT_EQ(repeated.TotalBusy("t"), separate.TotalBusy("t"));
  EXPECT_EQ(repeated.TotalBusy("t"), busy * n);
  for (const TimeNs t : {start, Sec(3), Sec(4)}) {
    EXPECT_EQ(repeated.UtilizationAt("t", t), separate.UtilizationAt("t", t));
  }
  // 5 ns of each interval land before the boundary.
  EXPECT_EQ(repeated.UtilizationAt("t", start),
            100.0 * static_cast<double>(5 * n) / static_cast<double>(Sec(1)));
}

}  // namespace
}  // namespace squeezy
