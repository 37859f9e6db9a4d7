#!/usr/bin/env python3
"""Benchmark-record identity gate.

Runs the repo benchmark driver (perfbench/driver.cc) on one part of each
workload -- `fleet` and `fleet-warm` part 24312 (seed 2026, part 0) and
`reclaim` seed 2026 -- and compares every JSON record it prints with the
golden file, after dropping the keys that measure the host rather than the
simulation: timings and peak RSS.  Every other value (latencies, counters,
committed GiB*s, routing hash, the memmap's materialized bytes, ...) is a
pure function of the seed, so any difference is a behaviour change -- or,
for memmap_peak_bytes, a change in how many granules the guest memory map
splits into frames.

  perfbench_records.py --driver BUILD/squeezy_perfbench --golden FILE
  perfbench_records.py --driver BUILD/squeezy_perfbench --golden FILE --update

--update rewrites the golden file from the driver (do this only on a
commit whose simulated behaviour is the reference).
"""

import argparse
import json
import subprocess
import sys

CASES = [("fleet", 24312), ("fleet-warm", 24312), ("reclaim", 2026)]

# Host-side measurements; everything else must match exactly.
DROPPED = {"s", "cpu_s", "cal_s", "units", "fill_s", "call_s", "peak_rss_mib"}


def records(driver):
    out = []
    for workload, seed in CASES:
        proc = subprocess.run(
            [driver, "--workload", workload, "--seed", str(seed), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True)
        for line in proc.stdout.splitlines():
            rec = json.loads(line)
            kept = {"case": "%s/%d" % (workload, seed)}
            kept.update((k, v) for k, v in rec.items() if k not in DROPPED)
            out.append(json.dumps(kept, sort_keys=True))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", required=True)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    got = records(args.driver)
    if args.update:
        with open(args.golden, "w") as f:
            f.write("\n".join(got) + "\n")
        print("wrote %d records to %s" % (len(got), args.golden))
        return 0

    with open(args.golden) as f:
        want = f.read().splitlines()
    bad = 0
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        if g == w:
            continue
        bad += 1
        if bad <= 5:
            gd = json.loads(g) if g else {}
            wd = json.loads(w) if w else {}
            keys = sorted(k for k in set(gd) | set(wd) if gd.get(k) != wd.get(k))
            print("record %d (%s) differs in %s" % (i, (wd or gd).get("case"), keys))
    if bad:
        print("FAIL: %d of %d records differ from %s" % (bad, len(want), args.golden))
        return 1
    print("PASS: %d records identical to %s" % (len(want), args.golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
