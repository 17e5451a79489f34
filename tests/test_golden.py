"""Golden tables: one tiny run of every subcommand against a stored table.

Commands whose tables depend only on bit-reproducible arithmetic are compared
byte for byte. The continuum and Peierls commands build their operators from
products of unitary phases, so a refactor may move their values at roundoff;
those are compared number by number at 1e-10 absolute + 1e-10 relative, with
all text between the numbers still required to match exactly.

Each case also stores its `.meta.json` sidecar, less the keys that vary from
run to run (VOLATILE). Its config, row count, verdicts and every gate's name,
limit and pass flag must match exactly; gate values follow the table's rule,
except `defect_zero`, which is roundoff itself and is held only to its gate.

The stored tables and the library versions that produced them live in
tests/golden/. To regenerate them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

This rewrites only the tables and sidecars that fail the test's own
comparison (and, after a table, environment.json), so the files the change
does not move keep their bytes.

The golden runs are too small to reach LAPACK's blocked, threaded paths, so
they cannot see the BLAS thread count. A second test reruns three larger
commands under OPENBLAS_NUM_THREADS=1 and =2 and holds the two tables to the
same 1e-10 absolute + 1e-10 relative rule, the thread-count contract of the
README.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

from fluxlab.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ATOL = 1e-10
RTOL = 1e-10
# sidecar keys that change from run to run, left out of the stored sidecars
VOLATILE = ("wall_time_s",)

# name -> (argv, compared byte for byte)
CASES = {
    "butterfly": (["butterfly", "--qmax", "4", "--kgrid", "8"], True),
    "fiber-spectrum": (["fiber-spectrum", "--flux", "2/5", "--kgrid", "16"], True),
    "harper-spectrum": (
        ["harper-spectrum", "--flux", "1/3", "--thetagrid", "8", "--kgrid", "8"],
        True,
    ),
    "peierls-check": (
        ["peierls-check", "--flux", "1/3,2/5,3/7", "--kgrid", "8"],
        False,
    ),
    "gauge-check": (["gauge-check", "--B", "1/8", "--L", "8"], True),
    "chern": (["chern", "--flux", "1/3", "--kgrid", "12"], True),
    "continuum-spectrum": (
        ["continuum-spectrum", "--B", "10", "--ncells", "2", "--nlevels", "3"],
        False,
    ),
    "lll-compare": (
        ["lll-compare", "--B", "5,10,20", "--ncells", "2", "--nlevels", "3"],
        False,
    ),
    "dynamics-defect": (
        [
            "dynamics-defect",
            "--B",
            "5,10,20",
            "--ncells",
            "2",
            "--nlevels",
            "3",
            "--times",
            "0,0.5,1",
        ],
        False,
    ),
    "disorder-dos": (
        [
            "disorder-dos",
            "--flux",
            "1/3",
            "--L",
            "6",
            "--nseeds",
            "3",
            "--kgrid",
            "16",
            "--bins",
            "40",
        ],
        True,
    ),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split_numbers(text):
    """The text with every number replaced by '#', and the numbers."""
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


def _run(name, directory):
    """(table bytes, sidecar less its VOLATILE keys) of one run of the case."""
    argv, _ = CASES[name]
    path = os.path.join(directory, f"{name}.csv")
    assert main(argv + ["--out", path]) == 0
    with open(path, "rb") as fh:
        table = fh.read()
    with open(_sidecar_path(path), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    for key in VOLATILE:
        del sidecar[key]
    return table, sidecar


def _sidecar_path(table_path):
    return os.path.splitext(table_path)[0] + ".meta.json"


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _numeric_mismatch(got, expected):
    """Why the text `got` differs from `expected` beyond ATOL + RTOL in some
    number or anywhere between the numbers, or None when it does not."""
    got_text, got_numbers = _split_numbers(got)
    want_text, want_numbers = _split_numbers(expected)
    if got_text != want_text or len(got_numbers) != len(want_numbers):
        return "text between the numbers differs"
    for a, b in zip(got_numbers, want_numbers):
        if not _close(a, b):
            return f"{a!r} differs from {b!r}"
    return None


def _mismatch(name, got, expected):
    """Why the table `got` fails the comparison with the stored `expected`
    (both bytes), or None when it passes."""
    if CASES[name][1]:
        return None if got == expected else "bytes differ"
    return _numeric_mismatch(got.decode(), expected.decode())


def _exact(value):
    return json.dumps(value, sort_keys=True)


def _gate_value_mismatch(name, got, expected):
    """Why the gate value in `got` differs from the stored one, or None."""
    a, b = got["value"], expected["value"]
    if got["name"] == "defect_zero":
        return None if a <= got["limit"] else f"{a!r} is above its limit"
    if CASES[name][1] or isinstance(a, str) or isinstance(b, str):
        # bytes, and the text of a non-finite value
        return None if _exact(a) == _exact(b) else f"{a!r} differs from {b!r}"
    return None if _close(a, b) else f"{a!r} differs from {b!r}"


def _sidecar_mismatch(name, got, expected):
    """Why the sidecar `got` fails the comparison with the stored `expected`,
    or None when it passes."""

    def fixed(sidecar):
        rest = {key: value for key, value in sidecar.items() if key != "gates"}
        gates = [[g["name"], g["limit"], g["passed"]] for g in sidecar["gates"]]
        return _exact([rest, gates])

    if fixed(got) != fixed(expected):
        return "config, rows, verdict or gate names, limits and flags differ"
    for a, b in zip(got["gates"], expected["gates"]):
        why = _gate_value_mismatch(name, a, b)
        if why:
            return f"gate {a['name']}: {why}"
    return None


def _stored(name):
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
        return fh.read()


def _stored_sidecar(name):
    path = _sidecar_path(os.path.join(GOLDEN, f"{name}.csv"))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_table(name, tmp_path):
    table, sidecar = _run(name, str(tmp_path))
    assert _mismatch(name, table, _stored(name)) is None
    assert _sidecar_mismatch(name, sidecar, _stored_sidecar(name)) is None


def test_sidecar_comparison_catches_moved_gates():
    # a gate value moved beyond the table's rule, a changed limit or flag,
    # and a changed row count each fail; defect_zero moves freely under its
    # gate, and the volatile wall time is not stored
    stored = _stored_sidecar("dynamics-defect")
    assert "wall_time_s" not in stored
    assert _sidecar_mismatch("dynamics-defect", stored, stored) is None

    def moved(change):
        sidecar = json.loads(json.dumps(stored))
        change(sidecar)
        return _sidecar_mismatch("dynamics-defect", sidecar, stored)

    def gate(sidecar, name):
        return next(g for g in sidecar["gates"] if g["name"] == name)

    assert moved(lambda s: gate(s, "max_defect").update(value=0.0733)) is not None
    assert moved(lambda s: gate(s, "max_defect").update(limit=3.0)) is not None
    assert moved(lambda s: gate(s, "max_defect").update(passed=False)) is not None
    assert moved(lambda s: s.update(rows=4)) is not None
    assert moved(lambda s: gate(s, "defect_zero").update(value=5e-11)) is None
    assert moved(lambda s: gate(s, "defect_zero").update(value=2e-10)) is not None
    butterfly = _stored_sidecar("butterfly")
    nudged = json.loads(json.dumps(butterfly))
    nudged["gates"][0]["value"] *= 1.0 + 1e-15
    assert _sidecar_mismatch("butterfly", nudged, butterfly) is not None


THREAD_CASES = [
    ["lll-compare", "--B", "20,40"],
    ["dynamics-defect", "--B", "20,40"],
    ["disorder-dos", "--L", "30", "--nseeds", "2"],
]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _table_under_threads(argv, threads):
    """CSV table of a fresh `python -m fluxlab.cli` run with `threads`
    OpenBLAS threads; the run must pass its gates."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "fluxlab.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv", THREAD_CASES, ids=lambda argv: argv[0])
def test_tables_agree_across_blas_thread_counts(argv):
    # defect_zero is roundoff itself; both runs hold it below its 1e-10 gate,
    # so ATOL covers it
    one, two = (_table_under_threads(argv, n) for n in (1, 2))
    assert _numeric_mismatch(one, two) is None


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
    }


def write_golden():
    """Rewrite the tables and sidecars that fail test_golden_table, and after
    a table the environment record; a missing file counts as failing."""
    os.makedirs(GOLDEN, exist_ok=True)
    rewritten = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            table, sidecar = _run(name, scratch)
            path = os.path.join(GOLDEN, f"{name}.csv")
            if not os.path.exists(path) or _mismatch(name, table, _stored(name)):
                with open(path, "wb") as fh:
                    fh.write(table)
                rewritten.append(name)
            meta = _sidecar_path(path)
            if not os.path.exists(meta) or _sidecar_mismatch(
                name, sidecar, _stored_sidecar(name)
            ):
                with open(meta, "w", encoding="utf-8") as fh:
                    json.dump(sidecar, fh, sort_keys=True, indent=2)
                    fh.write("\n")
                rewritten.append(os.path.basename(meta))
    print("rewrote:", ", ".join(rewritten) or "nothing")
    if not any(name in CASES for name in rewritten):
        return
    with open(os.path.join(GOLDEN, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(_environment(), fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    write_golden()
