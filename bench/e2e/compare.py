#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (parent vs change).

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --self-test

Each directory holds one file per run: the standard output of
`bench/e2e/run.sh --workload W --seed S --trace 0`.  Runs are grouped by
the `# workload:` header line and paired in file-name order, so name the
files so that the i-th parent run and the i-th change run were made back
to back (alternating which side ran first).  Traced runs are ignored.

For every workload x end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles and one verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ,
              in the metric's better direction, by more than the parent's
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (and more than the parent's spread);
  unresolved  the run-to-run spread of either side is wider than the bound,
              unless every change run reads better than every parent run;
  unchanged   otherwise.

It also checks the failure share (failed / attempted ops) of each side.
The exit code is 1 when any metric regressed or the change fails more
often than the parent, else 0.
"""

import argparse
import json
import os
import random
import re
import statistics
import sys

WORKLOAD_RE = re.compile(r"^# workload: (\S+)", re.M)
TRACE_RE = re.compile(r"trace: (\d)")


def natural_key(name):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", name)]


def load_runs(directory):
    """{workload: [result, ...]} from the untraced run outputs in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory), key=natural_key):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            text = f.read()
        workload = WORKLOAD_RE.search(text)
        trace = TRACE_RE.search(text)
        lines = text.strip().splitlines()
        if not workload or not lines:
            continue
        if trace and trace.group(1) != "0":
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        runs.setdefault(workload.group(1), []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(parent, change, better, bound):
    """Verdict for one metric; returns (verdict, stats dict)."""
    lower = better == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def is_better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    gain = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
    worse_share = -gain / abs(pm) if pm else 0.0
    parent_spread = (p3 - p1) / abs(pm) if pm else 0.0
    spread = max(parent_spread, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(is_better(c, p) for c in change for p in parent)
    stats = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
             "pairs": len(pairs), "change_share": (cm - pm) / pm if pm else 0.0,
             "spread": spread}
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", stats
    if worse_share > bound and worse_share > parent_spread:
        return "regressed", stats
    if spread > bound and not all_better:
        return "unresolved", stats
    return "unchanged", stats


def failure_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    incorrect = sum(1 for r in results if not r.get("correct", False))
    return (failed / attempted if attempted else 1.0), incorrect


def compare(parent_runs, change_runs, benchmark, out=sys.stdout):
    """Print the comparison; returns True when nothing regressed or failed."""
    ok = True
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        print(f"\n== {workload}: {len(parent)} parent runs, {len(change)} change runs",
              file=out)
        if not parent or not change:
            print("   missing runs on one side", file=out)
            ok = False
            continue
        pf, pbad = failure_share(parent)
        cf, cbad = failure_share(change)
        flag = "ok" if cf <= pf and cbad == 0 else "FAILURES"
        print(f"   failure share: parent {pf:.4g}, change {cf:.4g}, "
              f"incorrect change runs {cbad} -> {flag}", file=out)
        ok = ok and flag == "ok"
        print(f"   {'metric':16s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'change':>8s} {'wins':>6s}  verdict",
              file=out)
        for m in benchmark["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not pv or not cv:
                print(f"   {name:16s} missing", file=out)
                ok = False
                continue
            v, s = verdict(pv, cv, m["better"], m["bound"])
            ok = ok and v != "regressed"
            p, c = s["parent"], s["change"]
            ps = f"{p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]"
            cs = f"{c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]"
            print(f"   {name:16s} {ps:>36s} {cs:>36s}"
                  f" {s['change_share'] * 100:+7.2f}% {s['wins']:>2d}/{s['pairs']:<2d}  {v}",
                  file=out)
    return ok


def self_test():
    """Synthetic runs with known answers for every verdict and the failure check."""
    rng = random.Random(7)
    bench = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.05},
                            {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.05}]}

    def runs(t_scale, r_scale, noise, n=10, failed=0):
        return [{"correct": failed == 0, "attempted": 100, "failed": failed,
                 "metrics": {"t": {"value": t_scale * (1 + rng.gauss(0, noise)), "unit": "s"},
                             "r": {"value": r_scale * (1 + rng.gauss(0, noise)), "unit": "1/s"}}}
                for _ in range(n)]

    def verdicts(parent, change):
        out = {}
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["metrics"][m["name"]]["value"] for r in change]
            out[m["name"]] = verdict(pv, cv, m["better"], m["bound"])[0]
        return out

    cases = [
        ("same distribution", runs(1, 1, 0.003), runs(1, 1, 0.003),
         {"t": "unchanged", "r": "unchanged"}),
        ("10% better", runs(1, 1, 0.003), runs(0.9, 1.1, 0.003),
         {"t": "improved", "r": "improved"}),
        ("20% worse", runs(1, 1, 0.003), runs(1.2, 0.8, 0.003),
         {"t": "regressed", "r": "regressed"}),
        ("spread wider than bound", runs(1, 1, 0.3), runs(1, 1, 0.3),
         {"t": "unresolved", "r": "unresolved"}),
        ("3% worse, inside bound", runs(1, 1, 0.003), runs(1.03, 0.97, 0.003),
         {"t": "unchanged", "r": "unchanged"}),
    ]
    failures = 0
    for label, parent, change, want in cases:
        got = verdicts(parent, change)
        status = "ok" if got == want else "FAIL"
        failures += status != "ok"
        print(f"{status}: {label}: {got}")
    sink = open(os.devnull, "w")
    if compare({"w": runs(1, 1, 0.003)}, {"w": runs(1, 1, 0.003, failed=2)}, bench, sink):
        print("FAIL: a change with failed ops passed the failure check")
        failures += 1
    else:
        print("ok: a change with failed ops fails the failure check")
    if not compare({"w": runs(1, 1, 0.003)}, {"w": runs(1, 1, 0.003)}, bench, sink):
        print("FAIL: identical clean runs did not pass")
        failures += 1
    else:
        print("ok: identical clean runs pass")
    sink.close()
    return failures == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="directions and bounds (default: ./BENCHMARK.json)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return 0 if self_test() else 1
    if not args.parent or not args.change:
        ap.error("PARENT_DIR and CHANGE_DIR are required")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    ok = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
