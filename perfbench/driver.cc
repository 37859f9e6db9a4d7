// One iteration of one benchmark workload, timed from outside the
// simulator.  perfbench/run.py builds this binary, runs it repeatedly and
// turns its output into the benchmark's metrics; it is not meant to be
// read by people.
//
//   squeezy_perfbench --workload reclaim|fleet|fleet-warm --seed N --trace 0|1
//
// The driver only calls the simulator's public surface (Cluster,
// GenerateClusterTrace, GuestKernel with SqueezyManager and Memhog) and
// reads the counters the layers already expose.  It sets only fields that
// describe the modelled system, plus the sharded kernel's thread count.
//
// Output: one JSON object per line, flushed as soon as it is known, so a
// crash or an out-of-memory kill keeps everything printed before it.
//   {"rec":"phase","name":"setup"|"run"|"teardown","s":...}
//   {"rec":"fleet",...}            simulated outputs and layer counters
//   {"rec":"method",...}           one per reclaim method
//   {"rec":"span",...}             --trace 1 only, written at exit
//   {"rec":"end","peak_rss_mib":...}
// A phase record carries its wall and process CPU seconds ("s", "cpu_s"),
// both without calibrations, the mean CPU seconds of the calibration
// kernel over the phase ("cal_s") and its length in calibration units
// ("units"); see Speedometer.
// RunUntil always steps through fixed simulated-time windows.  With
// --trace 1 every call into a layer is wrapped in a span (name, start,
// end, parent; names are "<layer>.<call>"), and each RunUntil window
// records event, routing and cold-start deltas.  Untraced runs time only
// the three phases.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/squeezy.h"
#include "src/faas/function.h"
#include "src/guest/guest_kernel.h"
#include "src/host/host_memory.h"
#include "src/host/hypervisor.h"
#include "src/trace/cluster_trace.h"
#include "src/trace/memhog.h"
#include "src/trace/trace_gen.h"

namespace squeezy {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Output.

class Line {
 public:
  explicit Line(const char* rec) { Str("rec", rec); }
  Line& Str(const char* k, const std::string& v) {
    Key(k);
    out_ += '"' + v + '"';
    return *this;
  }
  Line& Num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Key(k);
    out_ += buf;
    return *this;
  }
  Line& Int(const char* k, uint64_t v) {
    Key(k);
    out_ += std::to_string(v);
    return *this;
  }
  Line& Ints(const char* k, const std::vector<uint64_t>& vs) {
    Key(k);
    out_ += '[';
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) {
        out_ += ',';
      }
      out_ += std::to_string(vs[i]);
    }
    out_ += ']';
    return *this;
  }
  Line& Nums(const char* k, const std::vector<double>& vs) {
    Key(k);
    out_ += '[';
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", vs[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  void Print() {
    std::printf("{%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  void Key(const char* k) {
    if (!out_.empty()) {
      out_ += ',';
    }
    out_ += '"';
    out_ += k;
    out_ += "\":";
  }
  std::string out_;
};

// Peak resident set of this process, from /proc (VmHWM, KiB).
double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans.  Kept in memory, written at exit.  Disabled tracers record nothing.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  int Begin(const char* name) {
    if (!on_) {
      return -1;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, Now(), 0.0, stack_.empty() ? -1 : stack_.back(), {}});
    stack_.push_back(id);
    return id;
  }
  void End(int id, std::vector<std::pair<const char*, double>> attrs = {}) {
    if (!on_) {
      return;
    }
    spans_[static_cast<size_t>(id)].end = Now();
    spans_[static_cast<size_t>(id)].attrs = std::move(attrs);
    stack_.pop_back();
  }
  bool on() const { return on_; }

  void Write() const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Line l("span");
      l.Int("id", i).Str("name", s.name).Num("start", s.start).Num("end", s.end);
      l.Num("parent", s.parent);
      for (const auto& [k, v] : s.attrs) {
        l.Num(k, v);
      }
      l.Print();
    }
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::vector<std::pair<const char*, double>> attrs;
  };
  double Now() const { return std::chrono::duration<double>(Clock::now() - t0_).count(); }

  const bool on_;
  const Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Runs `fn` inside a span named `name`.
template <typename F>
auto Traced(Tracer& tr, const char* name, F&& fn) {
  const int id = tr.Begin(name);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tr.End(id);
  } else {
    auto r = fn();
    tr.End(id);
    return r;
  }
}

// ---------------------------------------------------------------------------
// Machine speed.  A shared host changes this machine's speed by up to 2x,
// both within seconds and for minutes at a time, which no amount of
// repetition inside one run averages out.  So phases are measured in
// process CPU seconds (which leave out steal and run-queue waits) and cut
// into slices of about kSliceCpuS.  Between slices a short calibration
// kernel runs: fixed ordered-map churn in a private arena, using no
// simulator code.  A phase's length is reported in calibration units:
// each slice's CPU seconds over the mean of the calibrations on either
// side of it, summed.  run.py turns units into seconds at the reference
// machine's speed.

constexpr double kSliceCpuS = 0.05;

double CpuNow() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

class Speedometer {
 public:
  // CPU seconds of one run of the calibration kernel; also returns the
  // wall seconds it took through `wall`.
  double Calibrate(double* wall) {
    const Clock::time_point wall_start = Clock::now();
    const double start = CpuNow();
    Kernel();
    latest_ = CpuNow() - start;
    *wall = std::chrono::duration<double>(Clock::now() - wall_start).count();
    return latest_;
  }
  // The calibration taken last, or a fresh one if there is none yet.
  double Latest() {
    double wall = 0.0;
    return latest_ > 0.0 ? latest_ : Calibrate(&wall);
  }

 private:
  // Ordered-map inserts, lookups and erases, the simulator's commonest
  // data structure work.  Nodes come from a pool over an arena allocated
  // (and faulted in) once, so nothing is allocated from the heap and no
  // page faults while timed: the simulator's heap and working set do not
  // change what the kernel costs.
  void Kernel() {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<uint64_t, uint64_t> m(&pool);
    for (int round = 0; round < 3; ++round) {
      for (uint64_t i = 0; i < 4096; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        m[x >> 41] += i;
      }
      for (auto it = m.begin(); it != m.end();) {
        sink_ += it->second;
        it = (it->first & 1) != 0 ? m.erase(it) : std::next(it);
      }
    }
    sink_ += m.size();
  }

  std::vector<char> arena_ = std::vector<char>(size_t{4} << 20);
  double latest_ = 0.0;
  volatile uint64_t sink_ = 0;  // Keeps the kernel's work observable.
};

// Host time of one benchmark phase; also a top-level span.  Tick() between
// calls into the simulator ends a slice once kSliceCpuS have passed; the
// calibrations it runs are left out of every clock the phase reports.
class Phase {
 public:
  Phase(Tracer& tr, Speedometer& speed, const char* name)
      : tr_(tr),
        speed_(speed),
        name_(name),
        cal_(speed.Latest()),
        span_(tr.Begin(name)),
        start_(Clock::now()),
        slice_start_(CpuNow()) {}

  void Tick() {
    const double slice = CpuNow() - slice_start_;
    if (slice >= kSliceCpuS) {
      EndSlice(slice);
      slice_start_ = CpuNow();
    }
  }

  // Wall seconds since the phase started, calibrations left out.
  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count() - cal_wall_s_;
  }

  void Stop() {
    const double slice = CpuNow() - slice_start_;
    const double s = Elapsed();
    tr_.End(span_);
    EndSlice(slice);
    Line("phase")
        .Str("name", name_ + std::strlen("bench."))
        .Num("s", s)
        .Num("cpu_s", cpu_s_)
        .Num("cal_s", cal_sum_ / static_cast<double>(slices_))
        .Num("units", units_)
        .Print();
  }

 private:
  void EndSlice(double slice_cpu_s) {
    double wall = 0.0;
    const double cal = speed_.Calibrate(&wall);
    units_ += slice_cpu_s / ((cal_ + cal) / 2.0);
    cpu_s_ += slice_cpu_s;
    cal_sum_ += cal;
    slices_ += 1;
    cal_wall_s_ += wall;
    cal_ = cal;
  }

  Tracer& tr_;
  Speedometer& speed_;
  const char* name_;
  double cal_;  // The calibration at the start of the current slice.
  const int span_;
  const Clock::time_point start_;
  double slice_start_;
  double cpu_s_ = 0.0;
  double units_ = 0.0;
  double cal_sum_ = 0.0;
  int slices_ = 0;
  double cal_wall_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Fleet workloads: the fig12 sharded-row shape (Squeezy + HintedBinPack,
// the four paper functions at concurrency 2 on every host, 4 GiB hosts,
// 128 MiB VM base, 2-minute trace, 3-minute horizon).

constexpr size_t kHosts = 16;
constexpr uint64_t kHostCapacity = GiB(4);
constexpr uint64_t kVmBase = MiB(128);
constexpr uint32_t kConcurrency = 2;
constexpr TimeNs kTraceDuration = Minutes(2);
constexpr TimeNs kHorizon = Minutes(3);
constexpr TimeNs kWindow = Msec(250);  // RunUntil window.
constexpr size_t kTenantsPerHost = 4;

// One tenant's load: fig12's Zipf bursty trace (the hot half of the
// paper functions bursting 25x for ~25 s every ~70 s), arrivals quantized
// to 1 ms, at a quarter of one host's fig12 share (3.0/s per 4 hosts).
// A fleet serves 4 tenants per host whose bursts are independent: the
// per-host load matches fig12, and the fleet-wide mix no longer hangs on
// two coin flips, so outputs stay comparable from seed to seed.
ClusterTraceConfig TenantTrace() {
  ClusterTraceConfig t;
  t.duration = kTraceDuration;
  t.nr_functions = static_cast<int32_t>(PaperFunctions().size());
  t.total_base_rate_per_sec = 3.0 / 4.0 / kTenantsPerHost;
  t.zipf_s = 1.1;
  t.bursty_fraction = 0.5;
  t.burst_multiplier = 25.0;
  t.mean_burst_len = Sec(25);
  t.mean_gap = Sec(70);
  t.arrival_quantum = Msec(1);
  return t;
}

struct AgentTotals {
  uint64_t cold_starts = 0;
  uint64_t completed = 0;
  uint64_t queued = 0;
  uint64_t busy = 0;
  uint64_t spawns = 0;
};

AgentTotals CountAgents(const Cluster& c) {
  AgentTotals n;
  for (size_t h = 0; h < c.host_count(); ++h) {
    const FaasRuntime& host = c.host(h);
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      const Agent& a = host.agent(static_cast<int>(fn));
      n.cold_starts += a.cold_starts().size();
      n.completed += a.requests().size();
      n.queued += a.queued_requests();
      n.busy += a.busy_instances();
      n.spawns += a.total_spawns();
    }
  }
  return n;
}

// Everything read from the cluster after the measured phase.
void PrintFleet(Cluster& cluster, const FleetSummary& sum, size_t invocations) {
  const AgentTotals n = CountAgents(cluster);
  uint64_t routed = 0, proactive = 0, memmap_peak = 0, populated_peak = 0;
  uint64_t faults = 0, exits = 0;
  SqueezyStats sq;
  std::vector<uint64_t> latencies;
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    FaasRuntime& host = cluster.host(h);
    routed += cluster.routed_to(h);
    proactive += host.total_proactive_reclaims();
    populated_peak += host.host().populated_peak();
    for (size_t fn = 0; fn < host.function_count(); ++fn) {
      const GuestKernel& g = host.guest(static_cast<int>(fn));
      memmap_peak += g.memmap().materialized_peak_bytes();
      const VmStats& vs = host.hypervisor().stats(g.vm_id());
      faults += vs.nested_faults;
      exits += vs.exits;
      if (const SqueezyManager* m = host.squeezy(static_cast<int>(fn))) {
        sq.assignments += m->stats().assignments;
        sq.waitqueue_parks += m->stats().waitqueue_parks;
        sq.partitions_reclaimed += m->stats().partitions_reclaimed;
        sq.reuse_without_replug += m->stats().reuse_without_replug;
      }
      for (const RequestRecord& r : host.agent(static_cast<int>(fn)).requests()) {
        latencies.push_back(static_cast<uint64_t>(r.latency()));
      }
    }
  }
  const SnapshotStats snap = cluster.snapshot_store() != nullptr
                                 ? cluster.snapshot_store()->stats()
                                 : SnapshotStats{};
  const DepCacheStats dep =
      cluster.dep_cache() != nullptr ? cluster.dep_cache()->stats() : DepCacheStats{};
  const Cluster::DepIoTotals io = cluster.DepIo();

  Line l("fleet");
  l.Int("hosts", cluster.host_count()).Int("invocations", invocations);
  l.Int("completed", sum.completed_requests).Int("agent_completed", n.completed);
  l.Int("queued", n.queued).Int("busy", n.busy).Int("routed", routed);
  l.Int("unplaced", sum.unplaced_invocations);
  l.Int("latency_p50_ns", static_cast<uint64_t>(sum.latency_p50));
  l.Int("latency_p99_ns", static_cast<uint64_t>(sum.latency_p99));
  l.Num("committed_gib_s", sum.committed_gib_seconds);
  l.Int("committed_peak_bytes", sum.committed_peak);
  l.Int("routing_hash", cluster.routing_hash());
  l.Int("events", cluster.processed_events());
  l.Int("route_decisions", cluster.scheduler().decisions());
  l.Int("hints_fired", cluster.scheduler().hints_fired());
  l.Int("index_updates", cluster.host_index().stats().updates);
  l.Int("cold_starts", sum.cold_starts).Int("spawns", n.spawns);
  l.Int("evictions", sum.evictions);
  l.Int("pending_scaleups", sum.pending_scaleups_total);
  l.Int("proactive_reclaims", proactive).Int("unplug_failures", sum.unplug_failures);
  l.Int("assignments", sq.assignments).Int("waitqueue_parks", sq.waitqueue_parks);
  l.Int("partitions_reclaimed", sq.partitions_reclaimed);
  l.Int("reuse_without_replug", sq.reuse_without_replug);
  l.Int("nested_faults", faults).Int("exits", exits);
  l.Int("populated_peak_bytes", populated_peak);
  l.Int("memmap_peak_bytes", memmap_peak);
  l.Int("snapshot_restores", snap.restores);
  l.Int("snapshot_prefetch_bytes", snap.prefetch_bytes);
  l.Int("snapshot_tail_bytes", snap.tail_bytes);
  l.Int("snapshot_restored_heap_bytes", snap.restored_heap_bytes);
  l.Int("dep_boot_dedup_hits", dep.boot_dedup_hits);
  l.Int("dep_disk_read_bytes", io.disk_read_bytes);
  l.Int("dep_remote_read_bytes", io.remote_read_bytes);
  l.Int("dep_adopted_bytes", io.adopted_bytes);
  l.Ints("latency_ns", latencies);
  l.Print();
}

void RunFleet(bool warm, uint64_t seed, Tracer& tr, Speedometer& speed) {
  ClusterConfig cfg;
  cfg.nr_hosts = kHosts;
  cfg.placement = PlacementPolicy::kHintedBinPack;
  cfg.host.policy = ReclaimPolicy::kSqueezy;
  cfg.host.host_capacity = kHostCapacity;
  cfg.host.vm_base_memory = kVmBase;
  cfg.host.keep_alive = Sec(45);
  cfg.host.unplug_timeout = Sec(1);
  cfg.host.pressure_check_period = Msec(500);
  cfg.host.seed = seed;
  cfg.shared_dep_cache = warm;
  cfg.shared_snapshots = warm;
  cfg.sim_threads = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));

  Phase setup(tr, speed, "bench.setup");
  auto cluster =
      Traced(tr, "cluster.build", [&] { return std::make_unique<Cluster>(cfg); });
  setup.Tick();
  for (const FunctionSpec& spec : PaperFunctions()) {
    Traced(tr, "cluster.add_function", [&] { cluster->AddFunction(spec, kConcurrency); });
    setup.Tick();
  }
  const std::vector<Invocation> trace = Traced(tr, "trace.generate", [&] {
    std::vector<std::vector<Invocation>> tenants;
    for (size_t t = 0; t < kHosts * kTenantsPerHost; ++t) {
      const uint64_t tenant_seed = TraceStreamSeed(seed, static_cast<int32_t>(t));
      tenants.push_back(GenerateClusterTrace(TenantTrace(), tenant_seed));
    }
    return MergeTraces(std::move(tenants));
  });
  setup.Tick();
  Traced(tr, "cluster.submit", [&] { cluster->SubmitTrace(trace); });
  setup.Stop();

  // Traced or not, RunUntil steps through the same windows, so the traced
  // run differs only by its spans and per-window counters.
  Phase run(tr, speed, "bench.run");
  uint64_t events = 0, decisions = 0, colds = 0;
  if (tr.on()) {
    events = cluster->processed_events();
    decisions = cluster->scheduler().decisions();
    colds = CountAgents(*cluster).cold_starts;
  }
  for (TimeNs t = kWindow; t <= kHorizon; t += kWindow) {
    const int id = tr.Begin("sim.run_until");
    cluster->RunUntil(t);
    if (tr.on()) {
      const uint64_t e = cluster->processed_events();
      const uint64_t d = cluster->scheduler().decisions();
      const uint64_t c = CountAgents(*cluster).cold_starts;
      tr.End(id, {{"events", static_cast<double>(e - events)},
                  {"route_decisions", static_cast<double>(d - decisions)},
                  {"cold_starts", static_cast<double>(c - colds)}});
      events = e;
      decisions = d;
      colds = c;
    }
    run.Tick();
  }
  const FleetSummary sum =
      Traced(tr, "metrics.summarize", [&] { return cluster->Summarize(kHorizon); });
  run.Stop();

  PrintFleet(*cluster, sum, trace.size());

  Phase teardown(tr, speed, "bench.teardown");
  Traced(tr, "cluster.teardown", [&] { cluster.reset(); });
  teardown.Stop();
}

// ---------------------------------------------------------------------------
// Reclaim workload: the paper's Fig 5 step at 2 GiB.  Per method, a guest
// whose hotplugged memory is filled by 32 memhogs, then 32 steps that each
// stop one memhog and reclaim 2 GiB.  Methods run one after another, each
// with its own setup, run and teardown phase.

constexpr int kSteps = 32;
constexpr uint64_t kStepBytes = GiB(2);
enum class Method { kBalloon, kVirtio, kSqueezy };
constexpr Method kMethods[] = {Method::kBalloon, Method::kVirtio, Method::kSqueezy};

const char* MethodName(Method m) {
  switch (m) {
    case Method::kBalloon:
      return "balloon";
    case Method::kVirtio:
      return "virtio";
    case Method::kSqueezy:
      return "squeezy";
  }
  return "?";
}

// One reclaim step's result, whichever device served it.
struct Step {
  uint64_t bytes = 0;
  bool complete = false;
  DurationNs latency = 0;
  uint64_t pages_migrated = 0;
  uint64_t blocks_unplugged = 0;
};

void RunMethod(Method m, uint64_t seed, Tracer& tr, Speedometer& speed) {
  const bool sqz = m == Method::kSqueezy;
  SqueezyConfig scfg;
  scfg.partition_bytes = kStepBytes;
  scfg.nr_partitions = kSteps;
  scfg.shared_bytes = 0;  // memhog is purely anonymous.

  GuestConfig gcfg;
  gcfg.name = std::string(MethodName(m)) + "-vm";
  gcfg.base_memory = MiB(512);
  gcfg.hotplug_region = sqz ? scfg.region_bytes() : kSteps * kStepBytes;
  gcfg.seed = TraceStreamSeed(seed, static_cast<int32_t>(m));
  gcfg.unplug_timeout = Minutes(5);  // No timeouts in the microbenchmark.

  // Simulated clock: each call starts when the previous one ended.
  TimeNs now = 0;
  bool filled = true;
  std::vector<std::unique_ptr<Memhog>> hogs;
  std::vector<Pid> pids;
  std::unique_ptr<SqueezyManager> manager;

  Phase setup(tr, speed, "bench.setup");
  auto host =
      Traced(tr, "host.build", [&] { return std::make_unique<HostMemory>(GiB(96)); });
  const CostModel cost = CostModel::Default();
  auto hv = Traced(tr, "host.build",
                   [&] { return std::make_unique<Hypervisor>(host.get(), &cost); });
  auto guest = Traced(tr, "guest.build",
                      [&] { return std::make_unique<GuestKernel>(gcfg, hv.get()); });
  GuestKernel& g = *guest;
  setup.Tick();
  const double fill_start = setup.Elapsed();
  if (sqz) {
    manager = Traced(tr, "core.build",
                     [&] { return std::make_unique<SqueezyManager>(&g, scfg); });
    for (int i = 0; filled && i < kSteps; ++i) {
      const PlugOutcome plug =
          Traced(tr, "hotplug.plug", [&] { return g.PlugMemory(kStepBytes, now); });
      now += plug.latency;
      const Pid pid =
          Traced(tr, "guest.create_process", [&] { return g.CreateProcess(); });
      const bool enabled = Traced(
          tr, "core.enable", [&] { return manager->SqueezyEnable(pid).has_value(); });
      filled = plug.complete && enabled;
      if (!filled) {
        break;
      }
      const TouchResult touch = Traced(tr, "guest.touch_anon", [&] {
        return g.TouchAnon(pid, kStepBytes - MiB(8), now);
      });
      now += touch.latency;
      pids.push_back(pid);
      setup.Tick();
    }
  } else {
    const PlugOutcome plug = Traced(
        tr, "hotplug.plug", [&] { return g.PlugMemory(gcfg.hotplug_region, now); });
    now += plug.latency;
    filled = plug.complete;
    setup.Tick();
    Traced(tr, "mm.shuffle", [&] { g.movable_zone().ShuffleFreeLists(g.rng()); });
    setup.Tick();
    MemhogConfig mcfg;
    mcfg.bytes = kStepBytes - MiB(8);  // Small slack for churn headroom.
    mcfg.churn_fraction = 0.2;
    mcfg.warmup_cycles = 3;
    for (int i = 0; filled && i < kSteps; ++i) {
      hogs.push_back(std::make_unique<Memhog>(&g, mcfg));
      filled = Traced(tr, "guest.memhog_start", [&] { return hogs.back()->Start(now); });
      setup.Tick();
    }
  }
  const double fill_s = setup.Elapsed() - fill_start;
  setup.Stop();

  Phase run(tr, speed, "bench.run");
  const TimeNs reclaim_start = now;
  std::vector<Step> steps;
  std::vector<double> call_s;
  for (int i = 0; filled && i < kSteps; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (sqz) {
      Traced(tr, "guest.exit", [&] { g.Exit(pids[s]); });
    } else {
      Traced(tr, "guest.memhog_stop", [&] { hogs[s]->Stop(); });
    }
    const auto t0 = Clock::now();
    const Step step = Traced(tr, "hotplug.reclaim", [&] {
      Step r;
      if (m == Method::kBalloon) {
        const BalloonOutcome out = g.BalloonReclaim(kStepBytes, now);
        r = {out.bytes(), out.complete, out.latency(), 0, 0};
      } else {
        const UnplugOutcome out = g.UnplugMemory(kStepBytes, now);
        r = {out.bytes_unplugged, out.complete && !out.timed_out, out.latency(),
             out.pages_migrated, out.blocks_unplugged};
      }
      return r;
    });
    call_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    now += step.latency;
    steps.push_back(step);
    run.Tick();
  }
  run.Stop();

  const VmStats& vs = hv->stats(g.vm_id());
  Line l("method");
  l.Str("method", MethodName(m)).Int("filled", filled ? 1 : 0).Num("fill_s", fill_s);
  std::vector<uint64_t> bytes, complete, sim_ns, migrated, blocks;
  for (const Step& s : steps) {
    bytes.push_back(s.bytes);
    complete.push_back(s.complete ? 1 : 0);
    sim_ns.push_back(static_cast<uint64_t>(s.latency));
    migrated.push_back(s.pages_migrated);
    blocks.push_back(s.blocks_unplugged);
  }
  l.Int("requested_bytes", kStepBytes);
  l.Ints("bytes", bytes).Ints("complete", complete).Ints("sim_ns", sim_ns);
  l.Ints("pages_migrated", migrated).Ints("blocks_unplugged", blocks);
  l.Nums("call_s", call_s);
  l.Int("nested_faults", vs.nested_faults).Int("exits", vs.exits);
  l.Int("populated_peak_bytes", host->populated_peak());
  // A lone VM reserves no host commitment; the memory it holds is what
  // the host has populated for it.
  const double held = host->populated_series().IntegralSec(reclaim_start, now);
  l.Num("held_gib_s", held / static_cast<double>(GiB(1)));
  l.Int("memmap_peak_bytes", g.memmap().materialized_peak_bytes());
  l.Print();

  Phase teardown(tr, speed, "bench.teardown");
  Traced(tr, "guest.teardown", [&] {
    hogs.clear();
    manager.reset();
    guest.reset();
  });
  Traced(tr, "host.teardown", [&] {
    hv.reset();
    host.reset();
  });
  teardown.Stop();
}

}  // namespace
}  // namespace squeezy

int main(int argc, char** argv) {
  using namespace squeezy;
  std::string workload;
  uint64_t seed = 2026;  // fig12's seed.
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  Tracer tr(trace);
  Speedometer speed;
  if (workload == "reclaim") {
    for (const Method m : kMethods) {
      RunMethod(m, seed, tr, speed);
    }
  } else if (workload == "fleet" || workload == "fleet-warm") {
    RunFleet(workload == "fleet-warm", seed, tr, speed);
  } else {
    std::fprintf(stderr,
                 "usage: %s --workload reclaim|fleet|fleet-warm --seed N --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  tr.Write();
  Line("end").Num("peak_rss_mib", PeakRssMib()).Print();
  return 0;
}
