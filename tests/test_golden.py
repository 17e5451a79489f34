"""Golden tables: one tiny run of every subcommand against a stored table.

Commands whose tables depend only on bit-reproducible arithmetic are compared
byte for byte. The continuum and Peierls commands build their operators from
products of unitary phases, so a refactor may move their values at roundoff;
those are compared number by number at 1e-10 absolute + 1e-10 relative, with
all text between the numbers still required to match exactly.

The stored tables and the library versions that produced them live in
tests/golden/. To regenerate them after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import re
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
    "gauge-check": (["gauge-check", "--B", "1/8", "--L", "8", "--kgrid", "16"], True),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_table(name, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
        expected = fh.read()
    got = _run(name, str(tmp_path))
    if CASES[name][1]:
        assert got == expected
        return
    got_text, got_numbers = _split_numbers(got.decode())
    want_text, want_numbers = _split_numbers(expected.decode())
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    for a, b in zip(got_numbers, want_numbers):
        assert abs(a - b) <= ATOL + RTOL * abs(b), (a, b)


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
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            with open(os.path.join(GOLDEN, f"{name}.csv"), "wb") as fh:
                fh.write(_run(name, scratch))
    with open(os.path.join(GOLDEN, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(_environment(), fh, sort_keys=True, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    write_golden()
