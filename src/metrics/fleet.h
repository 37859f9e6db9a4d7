// Fleet-wide metric aggregation (cluster experiments).
//
// Pure combinators over the per-host primitives (LatencyRecorder,
// StepSeries); the cluster layer feeds them with one entry per host so
// benches report fleet p50/p99, a fleet committed-memory series, and
// starvation totals instead of K disconnected host views.
//
// Concurrency contract (machine-checked where there is state to check —
// see src/base/thread_annotations.h): MergeLatencies and SumSeries hold
// NO shared state; each call is a pure function of its inputs, so they
// are safe from any thread PROVIDED the per-host series they read are
// quiescent: call them between Run* calls, never from an event handler
// mid-run.  They must never grow hidden caches or globals — that would
// silently break this contract (and the determinism lint's ban on
// ambient time/randomness keeps the usual suspects out).
#ifndef SQUEEZY_METRICS_FLEET_H_
#define SQUEEZY_METRICS_FLEET_H_

#include <cstdint>
#include <vector>

#include "src/metrics/latency_recorder.h"
#include "src/metrics/time_series.h"
#include "src/sim/time.h"

namespace squeezy {

// Fleet-level rollup of one cluster run.  Populated by Cluster::Summarize;
// kept here (plain numbers, no faas dependencies) so reporting code can be
// shared by benches and tests.
struct FleetSummary {
  size_t hosts = 0;
  uint64_t completed_requests = 0;  // Requests that finished execution.
  DurationNs latency_p50 = 0;
  DurationNs latency_p99 = 0;
  DurationNs latency_mean = 0;
  uint64_t committed_peak = 0;       // Peak of the summed committed series.
  double committed_gib_seconds = 0;  // Fleet committed integral over the run.
  uint64_t pending_scaleups_total = 0;  // Scale-ups that ever waited for memory.
  uint64_t unplaced_invocations = 0;    // Rejected: function fit on no host.
  uint64_t unplug_failures = 0;
  uint64_t cold_starts = 0;
  uint64_t evictions = 0;
  uint64_t migrations = 0;           // Replica state transfers started.
  uint64_t migrated_instances = 0;   // Warm instances adopted by destinations.
};

// All samples of `parts` in one recorder (fleet percentiles).
LatencyRecorder MergeLatencies(const std::vector<const LatencyRecorder*>& parts);

// Pointwise sum of step series: the result steps at every timestamp where
// any input steps (e.g. per-host committed memory -> fleet committed).
StepSeries SumSeries(const std::vector<const StepSeries*>& parts);

}  // namespace squeezy

#endif  // SQUEEZY_METRICS_FLEET_H_
