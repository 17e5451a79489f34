"""Compare two sets of benchmark runs, one workload and metric per row.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are directories (or single files) holding the standard output
of `perfbench/run.py`, one run per file. End-to-end metrics (`--trace 0`
runs) get a verdict against the bounds in BENCHMARK.json:

  regression  head median worse than base median by more than the bound;
  gain        head wins at least 9 of 10 same-seed pairs and the medians
              differ by more than the base runs' quartile spread;
  unresolved  the base runs spread wider than the bound;
  same        otherwise.

When the two sides ran under different environments (Python, numpy, scipy,
BLAS build or threads, thread variables, CPU count) or different seeds, the
row is flagged instead of given a verdict. Per-layer metrics (`--trace 1`
runs) are listed with their medians only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(path):
    """(detail, result) for every run.py output under `path`."""
    files = (
        [os.path.join(path, name) for name in sorted(os.listdir(path))]
        if os.path.isdir(path)
        else [path]
    )
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.startswith("{")]
        if len(lines) < 2:
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if detail.get("perfbench") == 1:
            runs.append((detail, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environments(runs):
    return {json.dumps(d["environment"], sort_keys=True) for d, _ in runs}


def verdict(base, head, better, bound):
    """Verdict for one metric from {seed: value} of each side."""
    mb, mh = statistics.median(base.values()), statistics.median(head.values())
    q1, q3 = quartiles(sorted(base.values()))
    spread = (q3 - q1) / abs(mb)
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(base[s], head[s]) for s in base.keys() & head.keys()]
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    if sign * (mh - mb) / abs(mb) > bound:
        return "unresolved" if spread > bound else "regression"
    if pairs and wins >= 0.9 * len(pairs) and abs(mh - mb) > q3 - q1:
        return "gain"
    return "unresolved" if spread > bound else "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    base_runs, head_runs = load_runs(argv[0]), load_runs(argv[1])
    keys = sorted(
        {(d["workload"], d["trace"]) for d, _ in base_runs}
        & {(d["workload"], d["trace"]) for d, _ in head_runs}
    )
    print(f"{'workload':<13} {'metric':<26} {'base':>12} {'head':>12} {'change':>8}  verdict")
    for workload, trace in keys:
        base = [r for r in base_runs if (r[0]["workload"], r[0]["trace"]) == (workload, trace)]
        head = [r for r in head_runs if (r[0]["workload"], r[0]["trace"]) == (workload, trace)]
        envs = environments(base) | environments(head)
        flag = None
        if len(envs) > 1:
            flag = "flagged: environment differs"
        elif sorted(d["seed"] for d, _ in base) != sorted(d["seed"] for d, _ in head):
            flag = "flagged: seeds differ"
        failed = sum(r["failed"] for _, r in head) - sum(r["failed"] for _, r in base)
        for metric in base[0][1]["metrics"]:
            b = {d["seed"]: r["metrics"][metric]["value"] for d, r in base}
            h = {d["seed"]: r["metrics"][metric]["value"] for d, r in head}
            mb, mh = statistics.median(b.values()), statistics.median(h.values())
            change = (mh - mb) / abs(mb) if mb else 0.0
            if trace or metric not in end_to_end:
                label = ""
            elif flag:
                label = flag
            else:
                spec = end_to_end[metric]
                label = verdict(b, h, spec["better"], spec["bound"])
                if label == "gain" and failed > 0:
                    label = "gain withdrawn: more failed runs"
            print(f"{workload:<13} {metric:<26} {mb:>12.6g} {mh:>12.6g} {change:>+8.2%}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
