#!/usr/bin/env python3
"""Compare two sets of perfbench results.

Usage: python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one or more benchmark runs. Every
run contributes its report line (workload, seed, host fingerprint,
calibration, CPU time stolen by the hypervisor) and its result line
(metrics). The comparison is refused, with exit code 2 and the reason,
when the two sides were measured on different hosts or toolchains, or ran
different workloads. Otherwise it prints, per metric, each side's median
and quartiles and the change of the medians.
"""

import json
import statistics
import sys

FINGERPRINT_KEYS = ("nproc", "cpu_model", "rustc")


def load(path):
    """Returns [(report, result)] for every run in the file."""
    runs, report = [], None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "report" in obj:
                report = obj["report"]
            elif "metrics" in obj and report is not None:
                runs.append((report, obj))
                report = None
    if not runs:
        raise SystemExit(f"{path}: no benchmark runs found")
    return runs


def side_key(runs, path):
    """The fingerprint and workload every run of one side shares."""
    keys = {
        (tuple(r["fingerprint"][k] for k in FINGERPRINT_KEYS), r["workload"], r["trace"])
        for r, _ in runs
    }
    if len(keys) != 1:
        raise SystemExit(f"refused: {path} mixes hosts, workloads or trace modes: {sorted(keys)}")
    return keys.pop()


def refusal(before, after):
    """Why two sides may not be compared, or None."""
    (fp_a, wl_a, tr_a), (fp_b, wl_b, tr_b) = before, after
    for name, a, b in zip(FINGERPRINT_KEYS, fp_a, fp_b):
        if a != b:
            return f"host fingerprints differ in {name}: {a!r} vs {b!r}"
    if wl_a != wl_b:
        return f"workloads differ: {wl_a} vs {wl_b}"
    if tr_a != tr_b:
        return f"trace modes differ: {tr_a} vs {tr_b}"
    return None


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = [load(p) for p in argv[1:]]
    keys = [side_key(runs, p) for runs, p in zip(sides, argv[1:])]
    why = refusal(*keys)
    if why:
        print(f"refused: {why}")
        return 2
    print(f"workload {keys[0][1]}, host {keys[0][0]}")
    for label, runs in zip(("before", "after"), sides):
        cal = [r["calibration"]["ref.sa_edge_scan_edges_per_s"] for r, _ in runs]
        steal = [r.get("host_steal_s", 0.0) for r, _ in runs]
        print(f"{label}: {len(runs)} runs, seeds {[r['seed'] for r, _ in runs]}, "
              f"median SA edge scan {statistics.median(cal):.4g} edges/s, "
              f"CPU stolen by the host per run {min(steal):.2f}-{max(steal):.2f} s")
    names = list(sides[0][0][1]["metrics"])
    print(f"{'metric':34s} {'before q1/med/q3':>36s} {'after q1/med/q3':>36s} {'change':>8s}")
    for name in names:
        vals = [[res["metrics"][name]["value"] for _, res in runs if name in res["metrics"]]
                for runs in sides]
        if not all(vals):
            continue
        a, b = summary(vals[0]), summary(vals[1])
        change = (b[1] / a[1] - 1.0) if a[1] else float("nan")
        fmt = lambda s: f"{s[0]:.4g}/{s[1]:.4g}/{s[2]:.4g}"
        print(f"{name:34s} {fmt(a):>36s} {fmt(b):>36s} {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
