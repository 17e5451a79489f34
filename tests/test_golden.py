"""Golden tables: one tiny run of every subcommand against a stored table.

Commands whose tables depend only on bit-reproducible arithmetic are compared
byte for byte. The continuum and Peierls commands build their operators from
products of unitary phases, so a refactor may move their values at roundoff;
those are compared number by number at 1e-10 absolute + 1e-10 relative, with
all text between the numbers still required to match exactly.

The stored tables and the library versions that produced them live in
tests/golden/. To regenerate them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py

This rewrites only the tables that fail the test's own comparison (and then
environment.json), so tables the change does not move keep their bytes.

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
    argv, _ = CASES[name]
    path = os.path.join(directory, f"{name}.csv")
    assert main(argv + ["--out", path]) == 0
    with open(path, "rb") as fh:
        return fh.read()


def _numeric_mismatch(got, expected):
    """Why the text `got` differs from `expected` beyond ATOL + RTOL in some
    number or anywhere between the numbers, or None when it does not."""
    got_text, got_numbers = _split_numbers(got)
    want_text, want_numbers = _split_numbers(expected)
    if got_text != want_text or len(got_numbers) != len(want_numbers):
        return "text between the numbers differs"
    for a, b in zip(got_numbers, want_numbers):
        if not abs(a - b) <= ATOL + RTOL * abs(b):
            return f"{a!r} differs from {b!r}"
    return None


def _mismatch(name, got, expected):
    """Why the table `got` fails the comparison with the stored `expected`
    (both bytes), or None when it passes."""
    if CASES[name][1]:
        return None if got == expected else "bytes differ"
    return _numeric_mismatch(got.decode(), expected.decode())


def _stored(name):
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_table(name, tmp_path):
    assert _mismatch(name, _run(name, str(tmp_path)), _stored(name)) is None


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
    """Rewrite the tables that fail test_golden_table, and then the
    environment record; a missing table counts as failing."""
    os.makedirs(GOLDEN, exist_ok=True)
    rewritten = []
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            got = _run(name, scratch)
            path = os.path.join(GOLDEN, f"{name}.csv")
            if os.path.exists(path) and _mismatch(name, got, _stored(name)) is None:
                continue
            with open(path, "wb") as fh:
                fh.write(got)
            rewritten.append(name)
    print("rewrote:", ", ".join(rewritten) or "nothing")
    if not rewritten:
        return
    with open(os.path.join(GOLDEN, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(_environment(), fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    write_golden()
