"""Pure logic of the repo benchmark: statistics, span arithmetic, output
checks and the metric tables.  perfbench/run.py does the process and file
work; perfbench/test_bench_lib.py tests this module.

Terms used below:
  record   one JSON line printed by the driver binary (perfbench/driver.cc)
  part     one driver process: the reclaim workload has one part, a fleet
           workload has FLEET_PARTS sub-fleets with seeds derived from the
           workload seed
  sample   the records of one finished part
"""

import math
import statistics

WORKLOADS = ("reclaim", "fleet", "fleet-warm")
METHODS = ("balloon", "virtio", "squeezy")
# A fleet workload is FLEET_PARTS independent 16-host fleets run one after
# another: enough independent bursts that one seed's load matches another's.
FLEET_PARTS = 12
STEPS = 32  # Reclaim steps per method.
GIB = float(1 << 30)
MIB = float(1 << 20)
# Fig 5 of the paper, for the error column printed next to each ratio.
PAPER = {
    "virtio_over_balloon": 2.34,   # Geomean over 128 MiB..2 GiB steps.
    "squeezy_over_virtio": 10.9,   # Geomean over 128 MiB..2 GiB steps.
    "squeezy_2gib_ms": 127.0,
}

# The simulated-latency percentile each workload reports end to end: the
# highest of p99 and p95 whose value repeats within a few percent from seed
# to seed.  Measured over seeds 1..6: fleet p99 spreads 0.5% and p95 22%
# (p95 lands between 39 and 53 s, where few invocations finish); fleet-warm
# p95 spreads 4% and p99 44% (only 1-2% of its invocations take over 10 s).
TAIL_PCTILE = {"reclaim": 99.0, "fleet": 99.0, "fleet-warm": 95.0}

# CPU seconds one run of the driver's calibration kernel (Speedometer in
# driver.cc) takes on the reference machine: the 4-core VM of
# baseline.json at its fast end (the kernel's 10th percentile there).
# Host times are reported at that machine's speed.
REFERENCE_CAL_S = 0.003

# Timing keys in driver records; everything else is simulated output that
# must repeat bit for bit.
TIMING_KEYS = ("fill_s", "call_s")


# --- Statistics ---------------------------------------------------------------

def nearest_rank(values, p):
    """Nearest-rank percentile, p in (0, 100], as the simulator computes it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values, min_beyond=10):
    """The highest candidate percentile with at least `min_beyond` samples
    above its rank.  Returns (percentile, value, sample count); falls back
    to the median when too few samples exist for any candidate."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p / 100.0 * n) >= min_beyond:
            return p, nearest_rank(values, p), n
    return 50.0, nearest_rank(values, 50.0), n


def median(values):
    return statistics.median(values)


# --- Spans --------------------------------------------------------------------

def self_times(spans):
    """Self time per span id: its duration minus the time its direct
    children cover.  Children of one parent never overlap (the driver is
    single-threaded), so their durations simply add."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent >= 0:
            own[parent] -= s["end"] - s["start"]
    return own


def layer_self_seconds(spans):
    """Self seconds summed per layer (the span name's prefix before '.')."""
    totals = {}
    own = self_times(spans)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
    return totals


def span_seconds(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


# --- Parsing and checks -------------------------------------------------------

def split_records(records):
    """Groups one part's records by kind."""
    out = {"phase": [], "fleet": [], "method": [], "span": [], "end": []}
    for r in records:
        out.setdefault(r["rec"], []).append(r)
    return out


def sim_outputs(records):
    """The deterministic part of one sample: every fleet/method record with
    timing keys dropped."""
    groups = split_records(records)
    return [{k: v for k, v in r.items() if k not in TIMING_KEYS}
            for r in groups["fleet"] + groups["method"]]


def check_sample(workload, records):
    """Returns the list of failed checks of one part's records (empty when
    the sample is correct)."""
    g = split_records(records)
    problems = []
    if len(g["end"]) != 1:
        problems.append("driver did not finish")
    phases = [p["name"] for p in g["phase"]]
    if workload == "reclaim":
        if phases != ["setup", "run", "teardown"] * len(METHODS):
            problems.append("phases %s" % phases)
        if [m["method"] for m in g["method"]] != list(METHODS):
            problems.append("methods %s" % [m["method"] for m in g["method"]])
        for m in g["method"]:
            name = m["method"]
            if m["filled"] != 1:
                problems.append("%s: fill failed" % name)
            if len(m["sim_ns"]) != STEPS:
                problems.append("%s: %d of %d steps ran" % (name, len(m["sim_ns"]), STEPS))
            if not all(m["complete"]):
                problems.append("%s: a step did not complete" % name)
            if any(b != m["requested_bytes"] for b in m["bytes"]):
                problems.append("%s: a step reclaimed the wrong size" % name)
            if name == "squeezy" and any(m["pages_migrated"]):
                problems.append("squeezy: a step migrated pages")
    else:
        if phases != ["setup", "run", "teardown"]:
            problems.append("phases %s" % phases)
        if len(g["fleet"]) != 1:
            problems.append("no fleet record")
            return problems
        f = g["fleet"][0]
        if f["routed"] + f["unplaced"] != f["invocations"]:
            problems.append("book: routed %d + unplaced %d != trace %d"
                            % (f["routed"], f["unplaced"], f["invocations"]))
        if f["completed"] + f["queued"] + f["busy"] != f["routed"]:
            problems.append("book: completed %d + queued %d + busy %d != routed %d"
                            % (f["completed"], f["queued"], f["busy"], f["routed"]))
        if f["agent_completed"] != f["completed"] or len(f["latency_ns"]) != f["completed"]:
            problems.append("book: completed requests disagree")
        elif f["completed"] and (
                nearest_rank(f["latency_ns"], 50) != f["latency_p50_ns"]
                or nearest_rank(f["latency_ns"], 99) != f["latency_p99_ns"]):
            problems.append("latency percentiles disagree with the summary")
    return problems


# --- Metrics ------------------------------------------------------------------

def pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def phase_seconds(phase):
    """A phase's host seconds at the reference machine's speed.  The driver
    measures a phase in calibration units: slice by slice, its CPU seconds
    over those of a fixed kernel run between slices.  CPU time leaves out
    steal and run-queue waits; the units take out the rest of a shared
    host's speed changes, which slow the simulator and the kernel alike."""
    return phase["units"] * REFERENCE_CAL_S


def wall_seconds(phase):
    return phase["s"]


def cpu_seconds(phase):
    return phase["cpu_s"]


def sum_phase(records, name, seconds=phase_seconds):
    return sum(seconds(p) for p in split_records(records)["phase"] if p["name"] == name)


def phase_total(samples, name, seconds=phase_seconds):
    """One phase's seconds over a workload: the median over each part's
    repetitions, summed over parts."""
    return sum(median([sum_phase(r, name, seconds) for r in samples[k]])
               for k in sorted(samples))


def end_to_end(workload, samples):
    """End-to-end metrics from untraced samples.

    `samples` maps part -> list of record lists (one per repetition of that
    part, all with identical simulated outputs).  Host times (phase_seconds)
    are the median over a part's repetitions, summed over parts; peak RSS is
    the median over every process.  Simulated outputs are pooled over
    parts."""
    parts = sorted(samples)
    m = {}
    for phase in ("setup", "run", "teardown"):
        m[phase + "_s"] = phase_total(samples, phase)
    m["peak_rss_mib"] = median([split_records(r)["end"][0]["peak_rss_mib"]
                                for k in parts for r in samples[k]])
    first = [split_records(samples[k][0]) for k in parts]
    lat = sim_latencies_ms(first)
    m["sim_latency_p50_ms"] = nearest_rank(lat, 50)
    m["sim_latency_tail_ms"] = nearest_rank(lat, TAIL_PCTILE[workload])
    if workload == "reclaim":
        methods = first[0]["method"]
        m["sim_completed_pct"] = pct(sum(sum(x["complete"]) for x in methods),
                                     len(METHODS) * STEPS)
        m["sim_committed_gib_s"] = sum(x["held_gib_s"] for x in methods)
    else:
        fleets = [g["fleet"][0] for g in first]
        m["sim_completed_pct"] = pct(sum(f["completed"] for f in fleets),
                                     sum(f["invocations"] for f in fleets))
        m["sim_committed_gib_s"] = sum(f["committed_gib_s"] for f in fleets)
    return m


def sim_latencies_ms(groups):
    """The simulated latencies a workload reports, pooled over its parts:
    every invocation of a fleet, or every Squeezy step of reclaim (the
    system the paper measures; the other methods are per-layer metrics)."""
    fleets = [ns for g in groups for f in g["fleet"] for ns in f["latency_ns"]]
    steps = [ns for g in groups for x in g["method"] if x["method"] == "squeezy"
             for ns in x["sim_ns"]]
    return [ns / 1e6 for ns in fleets + steps]


def per_layer(workload, untraced, traced):
    """Per-layer metrics.  `untraced` is as for end_to_end; `traced` maps
    part -> the records of one traced run of that part.  Metrics a workload
    has no work for read 0."""
    parts = sorted(traced)
    spans = [split_records(traced[k])["span"] for k in parts]
    all_spans = [s for ss in spans for s in ss]

    def span_total(name):
        return sum(sum(span_seconds(ss, name)) for ss in spans)

    m = {}
    e2e = end_to_end(workload, untraced)
    traced_run = sum(sum_phase(traced[k], "run") for k in parts)
    m["bench.trace_overhead_s"] = traced_run - e2e["run_s"]
    m["bench.teardown_s"] = e2e["teardown_s"]
    # The raw clocks behind run_s, and the machine's speed against the
    # reference machine (above 1 is faster), over every untraced phase.
    m["bench.run_wall_s"] = phase_total(untraced, "run", wall_seconds)
    m["bench.run_cpu_s"] = phase_total(untraced, "run", cpu_seconds)
    m["bench.speed"] = REFERENCE_CAL_S / median(
        [p["cal_s"] for k in untraced for r in untraced[k] for p in split_records(r)["phase"]])
    selfs = {}
    for ss in spans:
        for layer, s in layer_self_seconds(ss).items():
            selfs[layer] = selfs.get(layer, 0.0) + s
    for layer in ("bench", "trace", "cluster", "sim", "metrics", "host", "guest",
                  "core", "hotplug", "mm"):
        m[layer + ".self_s"] = selfs.get(layer, 0.0)

    windows = span_seconds(all_spans, "sim.run_until")
    m["sim.window_s.p50"] = nearest_rank(windows, 50) if windows else 0.0
    m["sim.window_s.p99"] = nearest_rank(windows, 99) if windows else 0.0
    m["sim.window_s.samples"] = len(windows)
    m["trace.generate_s"] = span_total("trace.generate")
    m["cluster.build_s"] = span_total("cluster.build")
    m["cluster.add_function_s"] = span_total("cluster.add_function")
    m["cluster.submit_s"] = span_total("cluster.submit")
    m["cluster.teardown_s"] = span_total("cluster.teardown")
    m["metrics.summarize_s"] = span_total("metrics.summarize")
    m["hotplug.plug_s"] = span_total("hotplug.plug")

    first = [split_records(untraced[k][0]) for k in sorted(untraced)]
    lat = sim_latencies_ms(first)
    m["sim_latency_p95_ms"] = nearest_rank(lat, 95)
    m["sim_latency_p99_ms"] = nearest_rank(lat, 99)
    fleets = [g["fleet"][0] for g in first if g["fleet"]]
    methods = {x["method"]: x for g in first for x in g["method"]}

    def fsum(key):
        return sum(f[key] for f in fleets)

    events = fsum("events")
    m["sim.events"] = events
    m["sim.host_us_per_event"] = e2e["run_s"] / events * 1e6 if events else 0.0
    m["trace.invocations"] = fsum("invocations")
    m["cluster.route_decisions"] = fsum("route_decisions")
    m["cluster.hints_fired"] = fsum("hints_fired")
    m["cluster.index_updates"] = fsum("index_updates")
    m["faas.cold_starts"] = fsum("cold_starts")
    m["faas.cold_start_pct"] = pct(fsum("cold_starts"), fsum("routed"))
    m["faas.spawns"] = fsum("spawns")
    m["faas.evictions"] = fsum("evictions")
    m["faas.pending_scaleups"] = fsum("pending_scaleups")
    m["policy.proactive_reclaims"] = fsum("proactive_reclaims")
    m["policy.unplug_failures"] = fsum("unplug_failures")
    m["core.assignments"] = fsum("assignments")
    m["core.waitqueue_parks"] = fsum("waitqueue_parks")
    m["core.partitions_reclaimed"] = fsum("partitions_reclaimed")
    m["core.reuse_pct"] = pct(fsum("reuse_without_replug"), fsum("assignments"))
    vms = fleets + list(methods.values())
    m["host.nested_faults"] = sum(v["nested_faults"] for v in vms)
    m["host.exits"] = sum(v["exits"] for v in vms)
    m["host.populated_gib"] = sum(v["populated_peak_bytes"] for v in vms) / GIB
    m["host.committed_peak_gib"] = fsum("committed_peak_bytes") / GIB
    memmap = sum(v["memmap_peak_bytes"] for v in vms) / MIB
    hosts = fsum("hosts") or len(methods)  # Each reclaim method is one host.
    m["mm.memmap_peak_mib"] = memmap
    m["mm.memmap_peak_per_host_mib"] = memmap / hosts
    restores = fsum("snapshot_restores")
    m["snapshot.restores"] = restores
    m["snapshot.restore_pct"] = pct(restores, fsum("cold_starts"))
    m["snapshot.prefetch_gib"] = fsum("snapshot_prefetch_bytes") / GIB
    m["snapshot.tail_fault_pct"] = pct(fsum("snapshot_tail_bytes"),
                                       fsum("snapshot_restored_heap_bytes"))
    m["depcache.boot_dedup_hits"] = fsum("dep_boot_dedup_hits")
    avoided = fsum("dep_remote_read_bytes") + fsum("dep_adopted_bytes")
    m["depcache.cold_io_avoided_gib"] = avoided / GIB
    m["depcache.read_hit_pct"] = pct(avoided, avoided + fsum("dep_disk_read_bytes"))

    # Reclaim, per method.  Host times pool every untraced repetition.
    repeats = [x for k in untraced for r in untraced[k] for x in split_records(r)["method"]]
    for name in METHODS:
        x = methods.get(name)
        calls = [c * 1e3 for y in repeats if y["method"] == name for c in y["call_s"]]
        fills = [y["fill_s"] for y in repeats if y["method"] == name]
        key = "hotplug.reclaim_call_ms." + name
        p, value, n = tail(calls) if calls else (0.0, 0.0, 0)
        m[key + ".p50"] = nearest_rank(calls, 50) if calls else 0.0
        m[key + ".tail"] = value
        m[key + ".tail_pctile"] = p
        m[key + ".samples"] = n
        m["guest.fill_s." + name] = median(fills) if fills else 0.0
        migrated = sum(x["pages_migrated"]) if x else 0
        reclaimed_pages = sum(x["bytes"]) / 4096.0 if x else 0.0
        m["mm.pages_migrated." + name] = migrated
        m["mm.migrated_per_reclaimed_pct." + name] = pct(migrated, reclaimed_pages)
        m["hotplug.blocks_unplugged." + name] = sum(x["blocks_unplugged"]) if x else 0
        m["sim_reclaim_ms." + name] = statistics.fmean(x["sim_ns"]) / 1e6 if x else 0.0
    return m


def paper_comparison(methods_ms):
    """Ratio lines with their error against the paper, from the per-method
    mean simulated reclaim latency in ms."""
    b, v, s = (methods_ms[n] for n in METHODS)
    rows = [
        ("virtio-mem speedup over balloon (2 GiB step)", b / v, PAPER["virtio_over_balloon"], "x"),
        ("Squeezy speedup over virtio-mem (2 GiB step)", v / s, PAPER["squeezy_over_virtio"], "x"),
        ("Squeezy 2 GiB reclaim latency", s, PAPER["squeezy_2gib_ms"], " ms"),
    ]
    return ["%-46s %9.2f%s  (paper %g%s, error %+.1f%%)"
            % (label, value, unit, paper, unit, pct(value - paper, paper))
            for label, value, paper, unit in rows]
