"""Exact-count check of the traced runs.

    python3 -m pytest perfbench/test_counts.py   (from the checkout root)

Two traced runs of each workload must give identical counts, and the counts
must equal the `counts` and `kernel_shapes` recorded in workloads.json. A
change that alters how much work a workload does on purpose (for example
fewer eigensolves) updates those figures in the same change. Takes about
90 s on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

import layers
import run

with open(run.WORKLOADS, encoding="utf-8") as _fh:
    WORKLOADS = json.load(_fh)

COUNT_UNITS = {"count", "dim", "bytes", "flop"}


def traced_counts(root, name, spec, workdir, tag):
    argv = list(spec["argv"])
    if spec["seed_flag"] is not None:
        argv += [spec["seed_flag"], str(spec["reference_seed"])]
    inv = run.invoke(root, "trace", argv, workdir, tag, 300.0)
    assert not inv.problems, inv.stderr
    spans = inv.report["spans"]
    values = layers.layer_metrics(spans)
    counts = {
        key: value
        for key, value in values.items()
        if layers.PER_LAYER_UNITS[key] in COUNT_UNITS
    }
    return counts, layers.kernel_shapes(spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match(name):
    root = os.path.dirname(run.HERE)
    spec = WORKLOADS[name]
    workdir = run.scratch_dir(root, "counts-")
    try:
        first, shapes = traced_counts(root, name, spec, workdir, "a")
        second, shapes_again = traced_counts(root, name, spec, workdir, "b")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert first == second
    assert shapes == shapes_again
    assert {key: first[key] for key in spec["counts"]} == spec["counts"]
    for kernel, expected in spec.get("kernel_shapes", {}).items():
        assert shapes.get(kernel) == expected
