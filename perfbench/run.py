"""fluxlab benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload butterfly --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. Load is a closed loop with one
client: CLI invocations run back to back, each in a fresh `python` child
process that writes its table with `--out` into `.perfbench/`, so every
sample pays imports and first-solve warm-up as a user does. The benchmark
sets no thread variable and starts no process besides these children.

`--trace 0` measures the end-to-end metrics:
  wall_s       median time from `main(argv)` entry until table and sidecar
               are written;
  setup_s      median time from spawning the interpreter through
               `import fluxlab.cli` and config resolution up to the first
               library call (`run_command`), over every invocation and
               set-up-only probes;
  peak_rss_mb  median `ru_maxrss` of the child.
`--trace 1` alternates untraced and traced invocations and reports the
per-layer metrics of layers.py. Either way every table is checked (see
checks.py); `failed / attempted` is the error rate.

The second-to-last stdout line is a JSON detail record (environment,
samples, tail percentiles, failures, span table); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402

WORKLOADS = os.path.join(HERE, "workloads.json")
# Every run makes at least two invocations, so each table has a rerun to be
# byte-identical to; then more while the next one fits in --seconds.
MIN_INVOCATIONS = 2
# set-up samples per run (invocations plus set-up-only probes)
SETUP_SAMPLES = 5
# a run ends within this many seconds, whatever the workload
HARD_LIMIT_S = 160.0


@dataclass
class Invocation:
    """One child process: its timing, its report and what was wrong with it."""

    mode: str
    t_spawn: float
    t_end: float
    returncode: int | None
    stderr: str
    report: dict | None
    table: bytes | None
    sidecar: str | None
    problems: list = field(default_factory=list)

    @property
    def elapsed(self):
        return self.t_end - self.t_spawn

    @property
    def setup_s(self):
        return self.report["t_first_call"] - self.t_spawn

    @property
    def wall_s(self):
        return self.report["t_main1"] - self.report["t_main0"]

    @property
    def peak_rss_mb(self):
        return self.report["maxrss_kb"] / 1024.0


def _read(path, mode="r"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def scratch_dir(root, prefix):
    """A fresh directory under the checkout's `.perfbench/`, which git ignores."""
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def invoke(root, mode, argv, workdir, tag, timeout):
    """Run child.py once; the table goes to `workdir/tag.csv`."""
    report_path = os.path.join(workdir, f"{tag}.report.json")
    table_path = os.path.join(workdir, f"{tag}.csv")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, report_path, "--"]
    cmd += argv + ["--out", table_path]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = None, f"timed out after {exc.timeout:.0f} s"
    t_end = time.monotonic()
    report_text = _read(report_path)
    inv = Invocation(
        mode,
        t_spawn,
        t_end,
        returncode,
        stderr,
        json.loads(report_text) if report_text else None,
        _read(table_path, "rb"),
        _read(os.path.splitext(table_path)[0] + ".meta.json"),
    )
    if returncode != 0:
        inv.problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        inv.problems.append("traceback on stderr")
    if inv.report is None or "t_first_call" not in inv.report:
        inv.problems.append("no child report")
    return inv


def check(inv, baseline, workload, spec, seed, reference):
    """Fill `inv.problems` with every way the invocation's table is wrong."""
    if inv.table is None or inv.sidecar is None:
        inv.problems.append("table or sidecar not written")
        return
    if baseline is not None and inv.table != baseline:
        inv.problems.append("table is not byte-identical to the first run of its set")
    text = inv.table.decode("utf-8")
    inv.problems += checks.check_sidecar(inv.sidecar, text, spec["argv"][0])
    inv.problems += checks.check_table(workload, spec, text, seed, reference)


def source_identity(root) -> dict:
    """Git commit when the checkout has one, and a hash of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(_read(path, "rb"))
    commit = None
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        ref = head[5:].strip()
        commit = _read(os.path.join(root, ".git", ref))
        for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
            if commit is None and line.endswith(" " + ref):
                commit = line.split()[0]
    elif head:
        commit = head
    return {"git_commit": commit.strip() if commit else None, "src_sha256": digest.hexdigest()}


def tail(samples):
    """Median, count, and the highest percentile with at least ten samples
    beyond it (nearest rank), or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None, "n": n, "tail": None}
    if n >= 11:
        k = n - 10
        out["tail"] = {"percentile": round(100.0 * k / n, 2), "value": ordered[k - 1]}
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(root, args, spec, workdir, reference, deadline):
    """The run's invocation loop; returns (detail, attempted, failed, metrics)."""
    argv = list(spec["argv"])
    if spec["seed_flag"] is not None:
        argv += [spec["seed_flag"], str(args.seed)]
    start = time.monotonic()
    count = 0

    def call(mode):
        nonlocal count
        count += 1
        return invoke(root, mode, argv, workdir, f"{mode}{count}", max(1.0, deadline - time.monotonic()))

    # The first probe fills bytecode and page caches, which a user's repeated
    # invocations find warm; its timing is discarded.
    warm = call("probe")
    environment = (warm.report or {}).get("environment")
    invocations = []
    modes = ("run", "trace") if args.trace else ("run",)
    while True:
        batch = [call(mode) for mode in modes]
        invocations += batch
        if any(inv.returncode is None for inv in batch):
            break
        elapsed = time.monotonic() - start
        est = _median([inv.elapsed for inv in invocations]) * len(modes)
        if len(invocations) >= MIN_INVOCATIONS and elapsed + est > args.seconds:
            break

    baseline = next((inv.table for inv in invocations if inv.table is not None), None)
    for inv in invocations:
        check(inv, baseline, args.workload, spec, args.seed, reference)
    good = [inv for inv in invocations if not inv.problems]
    # A failed run (correct: false) still reports what its children measured.
    timed = good or [inv for inv in invocations if inv.report and "t_first_call" in inv.report]
    untraced = [inv for inv in timed if inv.mode == "run"]
    traced = [inv for inv in timed if inv.mode == "trace"]

    setups = [inv.setup_s for inv in timed]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 5.0:
        probe = call("probe")
        if probe.problems:
            break
        setups.append(probe.setup_s)

    samples = {
        "wall_s": [inv.wall_s for inv in untraced],
        "setup_s": setups,
        "peak_rss_mb": [inv.peak_rss_mb for inv in untraced],
    }
    detail = {
        "perfbench": 1,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": argv,
        "environment": environment,
        "source": source_identity(root),
        "samples": samples,
        "summary": {name: tail(values) for name, values in samples.items()},
        "error_rate": (len(invocations) - len(good)) / len(invocations),
        "failures": [
            {"mode": inv.mode, "problems": inv.problems, "stderr": inv.stderr[-2000:]}
            for inv in invocations
            if inv.problems
        ],
    }
    if args.trace:
        metrics = trace_metrics(untraced, traced, detail)
    else:
        metrics = {
            "wall_s": {"value": _median(samples["wall_s"]), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median(samples["peak_rss_mb"]), "unit": "MB"},
        }
    return detail, len(invocations), len(invocations) - len(good), metrics


def trace_metrics(untraced, traced, detail):
    """Per-layer metrics: medians over the traced invocations, plus process
    figures from the untraced ones and the traced-minus-untraced wall time."""
    per_run = []
    for inv in traced:
        values = layers.layer_metrics(inv.report["spans"])
        values["cli.table_bytes"] = len(inv.table)
        per_run.append(values)
    if traced:
        spans = traced[0].report["spans"]
        detail["span_table"] = layers.span_table(spans)
        detail["kernel_shapes"] = layers.kernel_shapes(spans)
        detail["untraced_targets"] = traced[0].report.get("untraced_targets", [])
    cpu = [inv.report["cpu_s"] for inv in untraced]
    util = [inv.report["cpu_s"] / inv.elapsed for inv in untraced]
    overhead = _median([inv.wall_s for inv in traced]) - _median([inv.wall_s for inv in untraced])
    metrics = {}
    for name, unit in layers.PER_LAYER_UNITS.items():
        if name == "proc.cpu_s":
            value = _median(cpu)
        elif name == "proc.cpu_util":
            value = _median(util)
        elif name == "trace.overhead_s":
            value = overhead
        else:
            value = _median([values[name] for values in per_run])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    with open(WORKLOADS, encoding="utf-8") as fh:
        workloads = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxlab", "cli.py")):
        print(f"error: no fluxlab source under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be a positive number", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    reference = _read(os.path.join(HERE, "reference", f"{args.workload}.csv"))
    if reference is None:
        print(f"error: no reference table for {args.workload}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    workdir = scratch_dir(root, f"{args.workload}-")
    try:
        detail, attempted, failed, metrics = measure(root, args, spec, workdir, reference, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in detail["failures"]:
        print(f"failed {failure['mode']} invocation: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
