// HostIndex unit fuzz against the scan oracle on synthetic rows.
//
// The per-event cluster oracle (property_test.cc) sees the index only
// through the states a 4-host fleet happens to reach.  Here 64 hosts and
// 8 functions with overlapping replica sets take random deltas directly:
// committed drawn from 4 levels so ties are the rule, pending from 0..4,
// draining flipped at random, and each batch of deltas applied in a
// shuffled order.  After every single update, every query must equal the
// scan over a plain mirror of the rows (tests/placement_scan_oracle.h):
// the bin-pack pick under a fresh random admit predicate, the
// least-committed tied set, the round-robin members, the placement
// candidates at several footprints and the pressure victim at several
// thresholds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/cluster/host_index.h"
#include "src/sim/rng.h"
#include "tests/placement_scan_oracle.h"

namespace squeezy {
namespace {

constexpr size_t kHosts = 64;
constexpr int kFunctions = 8;
constexpr uint64_t kCapacity = 100;
constexpr uint64_t kLevels[] = {20, 40, 60, 80};  // Committed values.

struct Delta {
  size_t host;
  scan_oracle::Row row;
};

scan_oracle::Row RandomRow(Rng& rng) {
  scan_oracle::Row row;
  row.committed = kLevels[rng.UniformInt(0, 3)];
  row.capacity = kCapacity;
  row.pending = static_cast<size_t>(rng.UniformInt(0, 4));
  row.draining = rng.Chance(0.25);
  return row;
}

class HostIndexOracleFuzzTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HostIndexOracleFuzzTest, EveryQueryMatchesTheScanAfterEveryUpdate) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 17);
  HostIndex index(kHosts);
  std::vector<scan_oracle::Row> rows(kHosts);
  for (size_t h = 0; h < kHosts; ++h) {
    rows[h] = RandomRow(rng);
    index.InitHost(h, rows[h].committed, rows[h].capacity, rows[h].pending,
                   rows[h].draining);
  }
  // Overlapping replica sets, in a random (not ascending) replica order so
  // replica-index and host-index tie-breaks are told apart.
  std::vector<std::vector<size_t>> fn_hosts(kFunctions);
  for (int fn = 0; fn < kFunctions; ++fn) {
    std::vector<size_t> all(kHosts);
    for (size_t h = 0; h < kHosts; ++h) {
      all[h] = h;
    }
    rng.Shuffle(all.begin(), all.end());
    all.resize(static_cast<size_t>(rng.UniformInt(1, 24)));
    fn_hosts[static_cast<size_t>(fn)] = all;
    index.RegisterFunction(fn, all);
  }

  const std::vector<uint64_t> needs = {0, 20, 40, 41, 60, 80, 81, kCapacity + 1};
  const std::vector<size_t> min_pendings = {0, 1, 2, 4, 5};
  uint64_t updates = 0;
  for (int batch = 0; batch < 200; ++batch) {
    // A burst of deltas (several may hit one host), applied shuffled.
    std::vector<Delta> deltas;
    const int n = static_cast<int>(rng.UniformInt(1, 16));
    for (int i = 0; i < n; ++i) {
      const size_t h =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(kHosts) - 1));
      scan_oracle::Row row = rows[h];
      switch (rng.UniformInt(0, 3)) {
        case 0:
          row.committed = kLevels[rng.UniformInt(0, 3)];
          break;
        case 1:
          row.pending = static_cast<size_t>(rng.UniformInt(0, 4));
          break;
        case 2:
          row.draining = !row.draining;
          break;
        case 3:
          row = RandomRow(rng);  // Spurious when it redraws the same row.
          break;
      }
      deltas.push_back({h, row});
    }
    rng.Shuffle(deltas.begin(), deltas.end());
    for (const Delta& d : deltas) {
      rows[d.host].committed = d.row.committed;
      rows[d.host].pending = d.row.pending;
      rows[d.host].draining = d.row.draining;
      index.Update(d.host, d.row.committed, d.row.pending, d.row.draining);
      ++updates;
      // A fresh admit predicate per check: fixed for the check's duration
      // (admission reads are const), drawn independently per replica.
      std::vector<std::vector<bool>> admits(kFunctions);
      for (size_t fn = 0; fn < admits.size(); ++fn) {
        for (size_t i = 0; i < fn_hosts[fn].size(); ++i) {
          admits[fn].push_back(rng.Chance(0.3));
        }
      }
      const auto can_admit = [&](int fn, size_t i) {
        return static_cast<bool>(admits[static_cast<size_t>(fn)][i]);
      };
      ASSERT_TRUE(scan_oracle::IndexMatchesScan(index, rows, fn_hosts, can_admit, needs,
                                                min_pendings))
          << "after update " << updates << " (host " << d.host << ")";
    }
  }
  EXPECT_EQ(index.stats().updates, updates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostIndexOracleFuzzTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const testing::TestParamInfo<uint64_t>& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace squeezy
