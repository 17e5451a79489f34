"""Regenerate the reference tables the benchmark checks every run against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the checkout root, only at a commit whose tables are known good:
each workload runs once at its reference seed, its table is stored as
`perfbench/reference/<workload>.csv`, and `reference/environment.json`
records the numpy, scipy and BLAS build that produced the tables.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    root = os.getcwd()
    with open(run.WORKLOADS, encoding="utf-8") as fh:
        workloads = json.load(fh)
    names = names or sorted(workloads)
    out_dir = os.path.join(run.HERE, "reference")
    os.makedirs(out_dir, exist_ok=True)
    env_path = os.path.join(out_dir, "environment.json")
    recorded = json.loads(run._read(env_path) or "{}")
    workdir = run.scratch_dir(root, "reference-")
    try:
        for name in names:
            spec = workloads[name]
            argv = list(spec["argv"])
            if spec["seed_flag"] is not None:
                argv += [spec["seed_flag"], str(spec["reference_seed"])]
            probe = run.invoke(root, "probe", argv, workdir, f"{name}-probe", 120.0)
            inv = run.invoke(root, "run", argv, workdir, name, 600.0)
            if inv.problems or inv.table is None or probe.problems:
                print(f"{name}: {inv.problems + probe.problems}\n{inv.stderr}", file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, f"{name}.csv"), "wb") as fh:
                fh.write(inv.table)
            recorded[name] = {
                "argv": argv,
                "source": run.source_identity(root),
                "environment": probe.report["environment"],
            }
            print(f"{name}: {len(inv.table)} bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(env_path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
