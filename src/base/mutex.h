// Annotated mutex wrapper: std::mutex carrying clang thread-safety
// capability attributes, plus the RAII MutexLock.
//
// Every class with fleet-shared state (EventQueue, Cluster,
// ClusterScheduler, MigrationPlanner, DepCache, SnapshotStore, HostIndex)
// self-locks through these types, so clang's `-Wthread-safety` proves
// the lock discipline at compile time and TSan has real acquire/release
// edges to check.  The simulator itself runs on one thread.
//
// Lock ordering (acquired top to bottom; a lower lock never takes a
// higher one):
//   Cluster::mu_  →  ClusterScheduler::mu_ / MigrationPlanner::mu_
//                 →  DepCache::mu_ / SnapshotStore::mu_
//                 →  EventQueue::mu_
// EventQueue invokes event handlers with its lock RELEASED, so handler
// code may re-enter any layer without inverting the order.
//
// Placement index (src/cluster/host_index.*) refinement:
//   * HostIndex::mu_ is a LEAF: it ranks below every lock above (it may
//     be acquired while Cluster::mu_, a scheduler/planner mu_, or host
//     machinery is held — hosts push state deltas into the index from
//     their mutation choke points, and the deciders query it mid-
//     decision), and HostIndex never calls ANY other component while
//     holding it, so no cycle is possible.
#ifndef SQUEEZY_BASE_MUTEX_H_
#define SQUEEZY_BASE_MUTEX_H_

#include <mutex>

#include "src/base/thread_annotations.h"

namespace squeezy {

class SQZ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SQZ_ACQUIRE() { mu_.lock(); }
  void Unlock() SQZ_RELEASE() { mu_.unlock(); }
  bool TryLock() SQZ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped lock: acquires in the constructor, releases in the destructor.
class SQZ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SQZ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SQZ_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace squeezy

#endif  // SQUEEZY_BASE_MUTEX_H_
