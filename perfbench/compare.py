#!/usr/bin/env python3
"""Compare a parent set and a change set of benchmark results.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved stdout of benchmark runs, one file per
run. For every (workload, metric) it prints each side's median and
quartiles, the share of seed-matched pairs the change wins (ties count
for neither), and, for the end-to-end metrics, a verdict:

  improved      the change wins at least 9/10 of the pairs and the
                medians differ by more than the parent's quartile
                distance;
  regressed     the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's quartile distance is wider than the bound,
                unless every change run beats every parent run;
  within bound  otherwise.

It refuses (exit 2) results from hosts with different core counts,
different run lengths, or different seeds on the two sides.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_run(path):
    objs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                try:
                    objs.append(json.loads(line))
                except ValueError:
                    pass
    if len(objs) < 2 or "metrics" not in objs[-1] or "workload" not in objs[-2]:
        sys.exit(f"compare: {path} holds no benchmark result")
    return objs[-2], objs[-1]


def load_set(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        info, result = load_run(os.path.join(directory, name))
        key = (info["workload"], info["trace"], info["seed"])
        if key in runs:
            sys.exit(f"compare: {directory} has two runs of {key}")
        runs[key] = (info, result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, lower_better, bound):
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    pairs = list(zip(parent, change))
    better = (lambda c, p: c < p) if lower_better else (lambda c, p: c > p)
    won = sum(1 for p, c in pairs if better(c, p)) / len(pairs)
    if bound is None:
        return won, ""
    all_better = all(better(c, p) for c in change for p in parent)
    worse_by = ((c_med - p_med) if lower_better else (p_med - c_med)) / p_med
    if won >= 0.9 and better(c_med, p_med) and abs(c_med - p_med) > q3 - q1:
        return won, "improved"
    if worse_by > bound:
        return won, "regressed"
    if (q3 - q1) / p_med > bound and not all_better:
        return won, "unresolved"
    return won, "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_set(sys.argv[1]), load_set(sys.argv[2])
    infos = [i for i, _ in list(parent.values()) + list(change.values())]
    for field in ("host_cores", "seconds"):
        if len({i[field] for i in infos}) > 1:
            print(f"compare: runs differ in {field}; refusing", file=sys.stderr)
            sys.exit(2)
    if set(parent) != set(change):
        print("compare: the two sets differ in workloads or seeds; refusing",
              file=sys.stderr)
        sys.exit(2)
    groups = sorted({(w, t) for w, t, _ in parent})
    print(f"{'workload':<13} {'metric':<28} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    for workload, trace in groups:
        seeds = sorted(s for w, t, s in parent if (w, t) == (workload, trace))
        p_runs = [parent[(workload, trace, s)][1] for s in seeds]
        c_runs = [change[(workload, trace, s)][1] for s in seeds]
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            bad = sum(1 for r in runs if not r["correct"])
            if bad:
                print(f"{workload}: {bad} {side} run(s) report wrong outputs")
        for name in p_runs[0]["metrics"]:
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            won, v = verdict(pv, cv, better.get(name) == "lower", bounds.get(name))
            cell = lambda xs: "%.6g [%.6g, %.6g]" % (
                statistics.median(xs), quartiles(xs)[0], quartiles(xs)[2])
            print(f"{workload:<13} {name:<28} {cell(pv):>36} {cell(cv):>36} "
                  f"{won:>5.2f}  {v}")


if __name__ == "__main__":
    main()
