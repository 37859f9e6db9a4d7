// Multi-host FaaS cluster (tentpole subsystem).
//
// Owns K FaasRuntime hosts driven by ONE shared EventQueue — a single
// virtual clock totally orders the whole fleet, so cluster runs are as
// bit-deterministic as single-host ones.  (A per-host sharded kernel was
// tried and deleted: at 1024 hosts half the events ran serially at its
// barriers and it stayed slower than this one wheel on 4 threads.)  A
// ClusterScheduler routes function registration (replica VM placement)
// and every invocation (picked at arrival time against live per-host
// committed memory) across the hosts; see src/cluster/scheduler.h for the
// policies.
//
// Layering: sim → mm/guest/hotplug → core → host/faas(+policy) → cluster.
// The scheduler sees hosts only through the HostControl plane
// (src/faas/host_control.h); the Cluster additionally owns the concrete
// FaasRuntime objects and exposes them for metrics/tests, so every
// single-host experiment keeps working unchanged.
//
// Maintenance: DrainHost(h) flips host h into draining — the scheduler
// stops routing to its replicas, and its live replicas are either reaped
// in place (kReapOnDrain, PR 2 behavior) or live-migrated to destination
// hosts picked by the MigrationPlanner (kMigrateOnDrain): warm state is
// captured and evicted on the source (commitment returns through the
// source's reclaim driver), priced by the CostModel's pre-copy transfer
// model, and re-created warm at the destination through the normal
// CanAdmit admission sizing.  UndrainHost reverses the drain.
#ifndef SQUEEZY_CLUSTER_CLUSTER_H_
#define SQUEEZY_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/thread_annotations.h"
#include "src/cluster/dep_cache.h"
#include "src/cluster/host_index.h"
#include "src/cluster/migration_planner.h"
#include "src/cluster/scheduler.h"
#include "src/faas/runtime.h"
#include "src/snapshot/snapshot_store.h"
#include "src/metrics/fleet.h"
#include "src/sim/event_queue.h"
#include "src/trace/trace_gen.h"

namespace squeezy {

struct ClusterConfig {
  size_t nr_hosts = 4;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  // Template for every host's runtime.  Host h runs with
  // seed = TraceStreamSeed(host.seed, h) (trace_gen.h scheme), so hosts'
  // internal randomness is decorrelated yet reproducible from one seed.
  RuntimeConfig host;
  // Replica VMs per function; 0 = one replica on every host.
  size_t replicas_per_function = 0;
  // What happens to a draining/pressured host's warm replicas.
  MigrationMode migration = MigrationMode::kReapOnDrain;
  // MigratePressured: minimum pending scale-ups before a host is treated
  // as under sustained pressure.
  size_t pressure_migrate_min_pending = 4;
  // Cluster-wide shared dependency cache (src/cluster/dep_cache.h): deps
  // regions charged once per host per image for sharing drivers, cold
  // starts fetch peer-resident images at wire speed, and migrations to a
  // populated destination skip deps_bytes on the wire.  Off by default —
  // every existing experiment is bit-identical with it off.
  bool shared_dep_cache = false;
  // Cluster-wide snapshot registry (src/snapshot/snapshot_store.h): each
  // function's first fully-warm idle records its touched-page working set;
  // later cold starts restore it as one bulk prefetch, and drivers with
  // SnapshotRestoreSupported() (Squeezy) size host commitment from the
  // restored working set instead of the full plug unit.  Off by default —
  // every existing experiment is bit-identical with it off.
  bool shared_snapshots = false;
  // Read by nothing; kept only so perfbench/driver.cc builds.
  size_t sim_threads = 0;
};

// Lock discipline: the cluster self-locks (`mu_`) around its routing and
// migration book.  `mu_` is the TOP of the cluster lock ordering
// (src/base/mutex.h): cluster methods call down into the scheduler,
// planner, registries, hosts and the event queue while holding it, and
// none of those layers ever calls back up into the Cluster — event
// handlers the cluster schedules re-acquire `mu_` themselves (the queue
// invokes them with its own lock released).
class Cluster : private HostStateListener {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  // Registers `spec` on scheduler-chosen hosts; returns the cluster-level
  // function index used by SubmitTrace traces.  Under constrained memory
  // the function may get fewer replicas than configured — or none at all
  // (replicas(fn).empty()), in which case its invocations are rejected and
  // counted as unplaced.  That is the fleet-capacity lever: a reclaim
  // policy that hoards commitment (kStatic) loses registrable functions.
  int AddFunction(const FunctionSpec& spec, uint32_t max_concurrency)
      SQZ_EXCLUDES(mu_);

  // Schedules the merged fleet trace (Invocation::function is a cluster
  // function index).  Routing happens per invocation at its arrival time.
  void SubmitTrace(const std::vector<Invocation>& trace) SQZ_EXCLUDES(mu_);

  void RunUntil(TimeNs t) { events_.RunUntil(t); }
  void RunAll() { events_.RunAll(); }

  // --- Accessors -----------------------------------------------------------------
  // The fleet's one queue: every host, the dispatcher and migrations
  // schedule here.
  EventQueue& events() { return events_; }
  // Events executed so far — the bench throughput numerator.
  uint64_t processed_events() const { return events_.processed_events(); }
  size_t host_count() const { return hosts_.size(); }
  FaasRuntime& host(size_t h) { return *hosts_[h]; }
  const FaasRuntime& host(size_t h) const { return *hosts_[h]; }
  ClusterScheduler& scheduler() { return *scheduler_; }
  // The placement candidate indexes every scheduler and planner decision
  // reads, fed by the hosts' state deltas.
  const HostIndex& host_index() const { return *host_index_; }
  size_t function_count() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return functions_.size();
  }
  // Returns a reference into the (locked) function table; callers run at
  // quiescence (tests/benches between Run* calls).
  const std::vector<Replica>& replicas(int cluster_fn) const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return functions_[static_cast<size_t>(cluster_fn)];
  }

  // --- Maintenance (the HostControl plane, fleet-side) -----------------------------
  // Under kMigrateOnDrain, live-migrates the host's warm replicas to
  // planner-chosen destinations before flipping it into draining.
  void DrainHost(size_t h) SQZ_EXCLUDES(mu_);
  void UndrainHost(size_t h) { hosts_[h]->Undrain(); }
  // One pressure-relief pass (kMigrateOnDrain only): if some host is
  // starving scale-ups (>= config.pressure_migrate_min_pending pending),
  // migrate its warm-but-idle replicas to hosts with headroom, freeing the
  // donor's commitment for the work it is actually serving.  Returns the
  // migrations started.
  size_t MigratePressured() SQZ_EXCLUDES(mu_);

  // --- Shared dependency cache ------------------------------------------------------
  // Null unless ClusterConfig::shared_dep_cache.
  const DepCache* dep_cache() const { return dep_cache_.get(); }

  // --- Shared snapshot registry -----------------------------------------------------
  // Null unless ClusterConfig::shared_snapshots.  Recordings live in
  // content-addressed shared storage, so one slot serves every host.
  const SnapshotStore* snapshot_store() const { return snapshot_store_.get(); }
  // Aggregated deps-file read accounting across every replica VM: how the
  // fleet's dependency bytes were actually served.
  struct DepIoTotals {
    uint64_t disk_read_bytes = 0;    // Cold backing-store IO paid.
    uint64_t remote_read_bytes = 0;  // Fetched from a peer host's image.
    uint64_t adopted_bytes = 0;      // Mapped from a host-resident image.
    // Bytes that would have been cold IO without the cache.
    uint64_t cold_io_avoided() const { return remote_read_bytes + adopted_bytes; }
  };
  DepIoTotals DepIo() const;

  // --- Migration introspection ------------------------------------------------------
  MigrationPlanner& planner() { return *planner_; }
  // Reference into the locked migration log — same quiescence contract
  // as replicas().
  const std::vector<MigrationRecord>& migrations() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return migrations_;
  }
  // Transfers started whose completion instant has not passed yet.
  uint64_t migrations_in_flight() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return in_flight_migrations_;
  }
  // Warm instances that landed on (were admitted by) destination hosts.
  uint64_t migrated_instances() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return migrated_instances_;
  }
  // Warm instances captured off donors but dropped (no destination fit or
  // the destination's admission ran out) — these cost future cold starts.
  uint64_t migration_reaped_instances() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return migration_reaped_instances_;
  }

  // Invocations routed to host h so far.
  uint64_t routed_to(size_t h) const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return routed_[h];
  }
  // Invocations rejected because their function has no replica anywhere.
  uint64_t unplaced_invocations() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return unplaced_;
  }
  // Order-sensitive FNV-1a digest of every routing decision; equal hashes
  // across runs mean identical placement streams (determinism tests).
  uint64_t routing_hash() const SQZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return routing_hash_;
  }

  // --- Fleet metrics ---------------------------------------------------------------
  // Pointwise sum of per-host committed-memory series.
  StepSeries FleetCommittedSeries() const;
  // Fleet rollup over [0, horizon] (latency percentiles merge every
  // replica's recorder; totals sum across hosts).
  FleetSummary Summarize(TimeNs horizon) const SQZ_EXCLUDES(mu_);

 private:
  // Event-handler entry point (locks mu_ itself; the queue invokes
  // handlers with its own lock released).
  void Dispatch(int cluster_fn) SQZ_EXCLUDES(mu_);
  // Migrates every warm replica off host `src`; returns transfers started.
  size_t MigrateOff(size_t src) SQZ_REQUIRES(mu_);
  // HostStateListener: hosts push (committed, pending, draining) deltas
  // here at their mutation choke points.  Forwards straight into the
  // leaf-locked HostIndex WITHOUT taking Cluster::mu_ — this runs from
  // host context below the cluster in the lock order (often while a
  // cluster method already holds mu_ further up the stack).
  void OnHostState(size_t host, uint64_t committed, size_t pending_scaleups,
                   bool draining) override {
    host_index_->Update(host, committed, pending_scaleups, draining);
  }

  const ClusterConfig config_;  // Immutable after construction.
  // Declared before every host: runtimes keep a pointer to it and cancel
  // their timers on destruction.
  EventQueue events_;
  // The unique_ptr targets below are installed once in the constructor
  // and never reseated; the pointed-to objects self-lock.
  std::unique_ptr<DepCache> dep_cache_;  // Null unless shared_dep_cache.
  std::unique_ptr<SnapshotStore> snapshot_store_;  // Null unless shared_snapshots.
  // Declared BEFORE hosts_: hosts notify the index through the listener,
  // so it must outlive them (members destroy in reverse order).
  std::unique_ptr<HostIndex> host_index_;
  std::vector<std::unique_ptr<FaasRuntime>> hosts_;
  std::unique_ptr<ClusterScheduler> scheduler_;
  std::unique_ptr<MigrationPlanner> planner_;

  // Guards the routing/migration book below.
  mutable Mutex mu_;
  std::vector<std::vector<Replica>> functions_ SQZ_GUARDED_BY(mu_);
  // Destination sizing per function.
  std::vector<uint64_t> fn_plug_unit_ SQZ_GUARDED_BY(mu_);
  // Registry image per function.
  std::vector<DepImageId> fn_dep_image_ SQZ_GUARDED_BY(mu_);
  std::vector<uint64_t> routed_ SQZ_GUARDED_BY(mu_);
  std::vector<MigrationRecord> migrations_ SQZ_GUARDED_BY(mu_);
  uint64_t in_flight_migrations_ SQZ_GUARDED_BY(mu_) = 0;
  uint64_t migrated_instances_ SQZ_GUARDED_BY(mu_) = 0;
  uint64_t migration_reaped_instances_ SQZ_GUARDED_BY(mu_) = 0;
  uint64_t unplaced_ SQZ_GUARDED_BY(mu_) = 0;
  // FNV-1a offset basis.
  uint64_t routing_hash_ SQZ_GUARDED_BY(mu_) = 0xcbf29ce484222325ULL;
};

}  // namespace squeezy

#endif  // SQUEEZY_CLUSTER_CLUSTER_H_
