// Placement scan oracle: every HostIndex query recomputed by a full pass.
//
// src/cluster/host_index.h promises that each query equals a scan over
// the hosts' live books, bit for bit — same candidate sets, same
// tie-breaks (lowest host / replica index), same all-draining fallbacks.
// This header IS that scan: plain loops over per-host rows, with no
// cached state, so a query can never be stale here.  Two tests hold the
// index to it: the per-event cluster oracle (property_test.cc) reads the
// rows from FaasRuntime's public books after every event, and the unit
// fuzz (host_index_test.cc) feeds synthetic rows with heavy ties.
#ifndef SQUEEZY_TESTS_PLACEMENT_SCAN_ORACLE_H_
#define SQUEEZY_TESTS_PLACEMENT_SCAN_ORACLE_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/host_index.h"

namespace squeezy {
namespace scan_oracle {

using Row = HostIndex::HostRow;

// The rows a cluster's hosts hold right now, read from their books.
inline std::vector<Row> RowsOf(const Cluster& cluster) {
  std::vector<Row> rows(cluster.host_count());
  for (size_t h = 0; h < rows.size(); ++h) {
    const FaasRuntime& host = cluster.host(h);
    rows[h] = Row{host.committed(), host.host_capacity(), host.pending_scaleups(),
                  host.draining()};
  }
  return rows;
}

// PlaceFunction's filter: non-draining hosts with available >= need,
// ascending host index.
inline std::vector<HostIndex::Candidate> CandidatesByAvailable(
    const std::vector<Row>& rows, uint64_t need) {
  std::vector<HostIndex::Candidate> out;
  for (size_t h = 0; h < rows.size(); ++h) {
    if (!rows[h].draining && rows[h].available() >= need) {
      out.push_back({h, rows[h].committed, rows[h].available()});
    }
  }
  return out;
}

// Bin-pack routing: the admitting replica with the most committed host,
// the first such replica on ties; -1 when none admits.
inline int FirstAdmittingByCommittedDesc(const std::vector<Row>& rows,
                                         const std::vector<size_t>& hosts,
                                         const std::function<bool(size_t)>& can_admit) {
  int best = -1;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (can_admit(i) &&
        (best < 0 ||
         rows[hosts[i]].committed > rows[hosts[static_cast<size_t>(best)]].committed)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// Whether replica i is eligible: non-draining, or every replica drains.
inline std::vector<bool> Eligible(const std::vector<Row>& rows,
                                  const std::vector<size_t>& hosts) {
  bool any_live = false;
  for (const size_t h : hosts) {
    any_live = any_live || !rows[h].draining;
  }
  std::vector<bool> eligible(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    eligible[i] = !any_live || !rows[hosts[i]].draining;
  }
  return eligible;
}

// Least-committed routing: eligible replicas at the minimum committed
// value, ascending replica index.
inline std::vector<size_t> LeastCommittedTied(const std::vector<Row>& rows,
                                              const std::vector<size_t>& hosts) {
  const std::vector<bool> eligible = Eligible(rows, hosts);
  std::vector<size_t> tied;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (!eligible[i]) {
      continue;
    }
    const uint64_t c = rows[hosts[i]].committed;
    if (!tied.empty() && c < rows[hosts[tied.front()]].committed) {
      tied.clear();
    }
    if (tied.empty() || c == rows[hosts[tied.front()]].committed) {
      tied.push_back(i);
    }
  }
  return tied;
}

// Round-robin routing: the non-draining replicas, ascending index.
inline std::vector<size_t> NonDraining(const std::vector<Row>& rows,
                                       const std::vector<size_t>& hosts) {
  std::vector<size_t> out;
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (!rows[hosts[i]].draining) {
      out.push_back(i);
    }
  }
  return out;
}

// The non-draining host with the most pending scale-ups (>= min_pending),
// ties to the lowest host index; -1 when none qualifies.
inline int MostPressured(const std::vector<Row>& rows, size_t min_pending) {
  int victim = -1;
  for (size_t h = 0; h < rows.size(); ++h) {
    if (rows[h].draining || rows[h].pending < min_pending) {
      continue;
    }
    if (victim < 0 || rows[h].pending > rows[static_cast<size_t>(victim)].pending) {
      victim = static_cast<int>(h);
    }
  }
  return victim;
}

// Checks every HostIndex query against the scan: each host's row, then
// for each function (fn_hosts[fn] = its replica hosts in replica order)
// the bin-pack pick under `can_admit(fn, replica)`, the least-committed
// tied set and the round-robin eligible members, then the placement
// candidates for each of `needs` and the pressure victim for each of
// `min_pendings`.  Names the first mismatch.
inline testing::AssertionResult IndexMatchesScan(
    const HostIndex& index, const std::vector<Row>& rows,
    const std::vector<std::vector<size_t>>& fn_hosts,
    const std::function<bool(int, size_t)>& can_admit,
    const std::vector<uint64_t>& needs, const std::vector<size_t>& min_pendings) {
  for (size_t h = 0; h < rows.size(); ++h) {
    const Row got = index.row(h);
    if (got.committed != rows[h].committed || got.capacity != rows[h].capacity ||
        got.pending != rows[h].pending || got.draining != rows[h].draining) {
      return testing::AssertionFailure() << "row of host " << h;
    }
  }
  for (size_t f = 0; f < fn_hosts.size(); ++f) {
    const int fn = static_cast<int>(f);
    const std::vector<size_t>& hosts = fn_hosts[f];
    const auto admit = [&](size_t i) { return can_admit(fn, i); };
    const int best = index.FirstAdmittingByCommittedDesc(fn, admit);
    if (best != FirstAdmittingByCommittedDesc(rows, hosts, admit)) {
      return testing::AssertionFailure()
             << "FirstAdmittingByCommittedDesc of fn " << fn << " (index " << best << ")";
    }
    if (index.LeastCommittedTied(fn) != LeastCommittedTied(rows, hosts)) {
      return testing::AssertionFailure() << "LeastCommittedTied of fn " << fn;
    }
    const std::vector<size_t> eligible = NonDraining(rows, hosts);
    if (index.EligibleCount(fn) != eligible.size()) {
      return testing::AssertionFailure() << "EligibleCount of fn " << fn;
    }
    for (size_t k = 0; k < eligible.size(); ++k) {
      if (index.EligibleAt(fn, k) != eligible[k]) {
        return testing::AssertionFailure() << "EligibleAt(" << k << ") of fn " << fn;
      }
    }
  }
  for (const uint64_t need : needs) {
    const std::vector<HostIndex::Candidate> got = index.CandidatesByAvailable(need);
    const std::vector<HostIndex::Candidate> want = CandidatesByAvailable(rows, need);
    bool same = got.size() == want.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].host == want[i].host && got[i].committed == want[i].committed &&
             got[i].available == want[i].available;
    }
    if (!same) {
      return testing::AssertionFailure() << "CandidatesByAvailable(" << need << ")";
    }
  }
  for (const size_t min_pending : min_pendings) {
    if (index.MostPressured(min_pending) != MostPressured(rows, min_pending)) {
      return testing::AssertionFailure() << "MostPressured(" << min_pending << ")";
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace scan_oracle
}  // namespace squeezy

#endif  // SQUEEZY_TESTS_PLACEMENT_SCAN_ORACLE_H_
