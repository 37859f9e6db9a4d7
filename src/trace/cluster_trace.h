// Multi-function cluster workload generation.
//
// A fleet-level trace in the style of the Azure Functions collection: a
// Zipf-skewed popularity distribution over many functions, where a hot
// subset exhibits flash-crowd churn (bursts far above its base rate) and
// the cold tail drizzles.  This is the workload shape that separates
// placement policies: skew concentrates bursts on a few functions, so a
// scheduler that ignores per-host committed memory keeps routing spikes
// into hosts that are still reclaiming (see src/cluster/).
//
// Determinism: every per-function stream is seeded via
// TraceStreamSeed(seed, function) (see trace_gen.h), so the full cluster
// trace is a pure function of (config, seed) — independent of host count
// or generation order.
#ifndef SQUEEZY_TRACE_CLUSTER_TRACE_H_
#define SQUEEZY_TRACE_CLUSTER_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/trace/trace_gen.h"

namespace squeezy {

struct ClusterTraceConfig {
  DurationNs duration = Minutes(10);
  int32_t nr_functions = 8;
  // Fleet-wide mean arrival rate outside bursts, split across functions by
  // Zipf weight w_i = (i+1)^-zipf_s (function 0 is the most popular).
  double total_base_rate_per_sec = 4.0;
  double zipf_s = 1.0;  // 0 = uniform popularity.
  // The hottest `ceil(bursty_fraction * nr_functions)` functions burst;
  // inside a burst a function's rate is base * burst_multiplier.
  double bursty_fraction = 0.5;
  double burst_multiplier = 25.0;
  DurationNs mean_burst_len = Sec(20);
  DurationNs mean_gap = Sec(90);
  // Round every arrival instant DOWN to a multiple of this quantum
  // (0 = off, the default — existing traces are bit-identical).  The
  // fig12 256-1024-host rows use 1 ms; it stays because their recorded
  // 256-host gate constants (admitted, events, routing hash) were taken
  // on the quantized trace.
  DurationNs arrival_quantum = 0;
};

// Zipf popularity weights for `config` (sums to 1, size nr_functions).
std::vector<double> ClusterZipfWeights(const ClusterTraceConfig& config);

// The merged, time-sorted fleet trace.  Invocation::function is the
// cluster-level function index in [0, nr_functions).
std::vector<Invocation> GenerateClusterTrace(const ClusterTraceConfig& config,
                                             uint64_t seed);

}  // namespace squeezy

#endif  // SQUEEZY_TRACE_CLUSTER_TRACE_H_
