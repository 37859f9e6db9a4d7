#!/usr/bin/env python3
"""The repo benchmark: builds the simulator driver, runs one workload and
prints its metrics.

  python3 perfbench/run.py --workload reclaim|fleet|fleet-warm \
      [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  The driver binary is built with CMake
into .bench_build/ (perfbench/CMakeLists.txt).  Each workload part runs in
its own driver process, repeatedly, until --seconds have passed; a part that
crashes, is killed or fails an output check counts as failed while the
results of the others are kept.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 runs every part once untraced and once traced
and prints the per-layer metrics, writing the spans to
.bench_build/spans-<workload>-<seed>.jsonl.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import bench_lib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "squeezy_perfbench")
DEFAULT_SEED = 2026  # fig12's seed.
BUDGET_S = 165.0     # Stop starting driver processes after this long.


def build():
    """Configures and builds the driver; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            return False
    return os.path.exists(BINARY)


def part_seed(workload, seed, part):
    """Fleet parts get distinct derived seeds; the reclaim part uses the seed."""
    return seed if workload == "reclaim" else seed * bench_lib.FLEET_PARTS + part


def run_part(workload, seed, part, trace, timeout):
    """Runs one driver process.  Returns (records, error or None); records
    printed before a crash are kept."""
    cmd = [BINARY, "--workload", workload, "--seed", str(part_seed(workload, seed, part)),
           "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        out, err = done.stdout, None
        if done.returncode != 0:
            err = "exit status %d: %s" % (done.returncode, done.stderr.strip()[-300:])
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        err = "timed out after %.0f s" % timeout
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            err = err or "unparsable driver output"
    return records, err


class Runner:
    """Runs parts, checks each sample and keeps the good ones."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = {}  # part -> simulated outputs of its first good sample
        self.untraced = {}   # part -> [records, ...]
        self.traced = {}     # part -> records

    def elapsed(self):
        return time.monotonic() - self.start

    def attempt(self, part, trace):
        self.attempted += 1
        timeout = max(5.0, BUDGET_S + 10.0 - self.elapsed())
        records, err = run_part(self.workload, self.seed, part, trace, timeout)
        problems = ([err] if err else []) + bench_lib.check_sample(self.workload, records)
        if not problems:
            sim = bench_lib.sim_outputs(records)
            ref = self.reference.setdefault(part, sim)
            if sim != ref:
                problems.append("simulated outputs differ from this part's first run")
        if problems:
            self.failed += 1
            self.problems.extend("part %d%s: %s" % (part, " (traced)" if trace else "", p)
                                 for p in problems)
            return
        if trace:
            self.traced[part] = records
        else:
            self.untraced.setdefault(part, []).append(records)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_lib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        sys.stderr.write("build failed\n")
        return 1

    parts = [0] if args.workload == "reclaim" else list(range(bench_lib.FLEET_PARTS))
    r = Runner(args.workload, args.seed)
    # Every part once (traced runs untraced first, then traced), then more
    # untraced repetitions while time remains.
    for part in parts:
        if r.elapsed() < BUDGET_S:
            r.attempt(part, trace=False)
        if args.trace and r.elapsed() < BUDGET_S:
            r.attempt(part, trace=True)
    i = 0
    while r.elapsed() < args.seconds and r.elapsed() < BUDGET_S:
        r.attempt(parts[i % len(parts)], trace=False)
        i += 1

    metrics = {}
    if r.untraced and (not args.trace or r.traced):
        if args.trace:
            metrics = bench_lib.per_layer(args.workload, r.untraced, r.traced)
            spans = os.path.join(BUILD_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
            with open(spans, "w") as f:
                for part in sorted(r.traced):
                    for rec in bench_lib.split_records(r.traced[part])["span"]:
                        f.write(json.dumps(dict(rec, part=part)) + "\n")
            print("spans: %s" % os.path.relpath(spans, ROOT))
        else:
            metrics = bench_lib.end_to_end(args.workload, r.untraced)
            print("sim_latency_tail_ms is p%g" % bench_lib.TAIL_PCTILE[args.workload])
        if args.workload == "reclaim":
            first = bench_lib.split_records(r.untraced[0][0])["method"]
            means = {x["method"]: sum(x["sim_ns"]) / len(x["sim_ns"]) / 1e6 for x in first}
            for line in bench_lib.paper_comparison(means):
                print(line)

    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            print("%-44s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    missing = [m["name"] for m in wanted if m["name"] not in out]
    if missing and r.untraced:
        r.problems.append("metrics not computed: %s" % ", ".join(missing))
    for p in r.problems:
        print("FAILED CHECK: " + p)
    correct = r.failed == 0 and not r.problems and len(r.untraced) == len(parts)
    print(json.dumps({"correct": correct, "attempted": r.attempted,
                      "failed": r.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
