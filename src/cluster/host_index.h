// Incrementally-maintained placement candidate indexes (the scale-out
// decision plane).
//
// Every placement decision reads hosts through this index: the deciders
// (`ClusterScheduler::PlaceFunction`/`Route`, `MigrationPlanner::
// RankDestinations`/`MostPressuredHost`) pick from a tree in O(log hosts)
// instead of scanning every candidate host per decision:
//   * per-host rows      — cached (committed, capacity, pending, draining),
//     refreshed through HostStateListener deltas (host_control.h) fired at
//     the books' choke points (HostMemory commit observer, pending queue,
//     drain flag);
//   * by_available_      — (available, host) ascending: PlaceFunction
//     gathers every host that fits a boot footprint from one lower_bound;
//   * by_pressure_       — (pending desc, host asc): MostPressuredHost is
//     the first non-draining entry;
//   * per-function trees — (committed, replica) ascending over the
//     function's replica hosts: bin-pack routing walks committed groups
//     descending (ties ascending replica index — first-match semantics),
//     least-committed routing takes the first eligible group.
//
// Exactness contract: every query equals a full scan over the hosts'
// live books BIT-IDENTICALLY — same candidate sets, same tie-breaks
// (lowest host / replica index), same all-draining fallbacks.  That scan
// lives in tests/placement_scan_oracle.h.  The cached values are
// maintained, never recomputed, so the contract holds only if every
// mutation of committed/pending/draining notifies.  Two tests hold it:
// PerEventPlacementOracleTest checks every query against the oracle
// after every event of a churned cluster run, and HostIndexOracleFuzzTest
// does the same on synthetic rows with heavy ties.
//
// Determinism: every ordered structure is keyed by absolute values
// (bytes, counts, stable indices) — never pointers or hashes — so the
// index contents are a pure function of the host states regardless of
// update arrival order across shard threads (tools/determinism_lint.py
// rejects unordered or pointer-keyed containers in index-named state).
//
// Lock discipline: the index self-locks (`mu_`), a LEAF in the cluster
// ordering (src/base/mutex.h): updates arrive from host layers below the
// scheduler (possibly from shard threads mid-epoch), queries from the
// decision layers above, and no method ever calls out of the class while
// holding `mu_`.
#ifndef SQUEEZY_CLUSTER_HOST_INDEX_H_
#define SQUEEZY_CLUSTER_HOST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"

namespace squeezy {

// Bench-visible counters.  Deterministic: update counts are a pure
// function of the simulated event stream (identical at any thread
// count), so they belong in BENCH_*.json.
struct HostIndexStats {
  uint64_t updates = 0;        // Delta notifications absorbed.
  uint64_t functions = 0;      // Per-function trees registered.
  size_t max_fn_replicas = 0;  // Widest per-function tree (its depth is
                               // ceil(log2) of this).
};

class HostIndex {
 public:
  explicit HostIndex(size_t nr_hosts);

  HostIndex(const HostIndex&) = delete;
  HostIndex& operator=(const HostIndex&) = delete;

  // Cached mirror of one host's decision-relevant state.
  struct HostRow {
    uint64_t committed = 0;
    uint64_t capacity = 0;
    size_t pending = 0;
    bool draining = false;

    uint64_t available() const { return capacity - committed; }
  };

  // One PlaceFunction candidate: host plus the cached quantities the
  // placement comparators rank on (read under one lock).
  struct Candidate {
    size_t host = 0;
    uint64_t committed = 0;
    uint64_t available = 0;
  };

  // --- Maintenance ---------------------------------------------------------------
  // Seeds host's row before any delta can arrive (cluster construction).
  void InitHost(size_t host, uint64_t committed, uint64_t capacity, size_t pending,
                bool draining) SQZ_EXCLUDES(mu_);
  // Absorbs one delta notification (HostStateListener).  Any subset of
  // the fields may have changed; capacity is fixed at InitHost.
  void Update(size_t host, uint64_t committed, size_t pending, bool draining)
      SQZ_EXCLUDES(mu_);
  // Registers cluster function `fn`'s replica hosts (replica order).
  // Calls must happen in cluster-function-index order, right after
  // placement — before any routing decision for `fn`.
  void RegisterFunction(int fn, const std::vector<size_t>& replica_hosts)
      SQZ_EXCLUDES(mu_);

  // --- Queries (each equals the tests/ scan oracle bit-identically) ---------------
  HostRow row(size_t host) const SQZ_EXCLUDES(mu_);

  // Non-draining hosts with available >= need, ascending host index, each
  // carrying the cached values the placement comparators sort on
  // (PlaceFunction's candidate filter).
  std::vector<Candidate> CandidatesByAvailable(uint64_t need) const SQZ_EXCLUDES(mu_);

  // Bin-pack routing: first replica of `fn` in (committed descending,
  // replica index ascending) order for which `can_admit(replica)` holds;
  // -1 when none admits.  `can_admit` is invoked WITHOUT `mu_` held (it
  // calls into the host layer), against an order fixed before the first
  // probe — admission checks are const, so the probe order alone
  // determines the pick, exactly like the oracle's max-committed
  // first-match loop.
  int FirstAdmittingByCommittedDesc(int fn,
                                    const std::function<bool(size_t)>& can_admit) const
      SQZ_EXCLUDES(mu_);

  // Least-committed routing: the tied set — replicas of the least
  // committed eligible group (non-draining, unless every replica drains),
  // ascending replica index.  Never empty for a registered non-empty fn.
  std::vector<size_t> LeastCommittedTied(int fn) const SQZ_EXCLUDES(mu_);

  // Round-robin routing: non-draining replica count of `fn`, and the
  // k-th non-draining replica (k < EligibleCount(fn)).
  size_t EligibleCount(int fn) const SQZ_EXCLUDES(mu_);
  size_t EligibleAt(int fn, size_t k) const SQZ_EXCLUDES(mu_);

  // The non-draining host with the most pending scale-ups (at least
  // `min_pending`), ties to the lowest host index; -1 when none
  // qualifies (MostPressuredHost).
  int MostPressured(size_t min_pending) const SQZ_EXCLUDES(mu_);

  size_t host_count() const { return nr_hosts_; }
  HostIndexStats stats() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  // One function's replica tree: (committed, replica index) ascending —
  // natural pair order gives committed groups ascending with replica
  // order inside each group, walked forward for least-committed and
  // backward (group-reversed) for bin-pack.
  struct FnIndex {
    std::vector<size_t> hosts;  // replica index -> host.
    std::set<std::pair<uint64_t, size_t>> by_committed;
    size_t draining_replicas = 0;
  };

  void ApplyRow(size_t host, uint64_t committed, size_t pending, bool draining)
      SQZ_REQUIRES(mu_);

  const size_t nr_hosts_;  // Set at construction, immutable after.
  mutable Mutex mu_;
  std::vector<HostRow> rows_ SQZ_GUARDED_BY(mu_);
  // (available, host) ascending.
  std::set<std::pair<uint64_t, size_t>> by_available_ SQZ_GUARDED_BY(mu_);
  // (pending desc, host asc): begin() is the most pressured host.
  struct PressureOrder {
    bool operator()(const std::pair<size_t, size_t>& a,
                    const std::pair<size_t, size_t>& b) const {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;
    }
  };
  std::set<std::pair<size_t, size_t>, PressureOrder> by_pressure_ SQZ_GUARDED_BY(mu_);
  std::vector<FnIndex> fns_ SQZ_GUARDED_BY(mu_);
  // host -> (fn, replica index) memberships, so one host delta updates
  // every tree it appears in.
  std::vector<std::vector<std::pair<size_t, size_t>>> host_fns_ SQZ_GUARDED_BY(mu_);
  HostIndexStats stats_ SQZ_GUARDED_BY(mu_);
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_HOST_INDEX_H_
