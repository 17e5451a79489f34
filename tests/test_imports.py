"""Module boundaries: no fluxlab module imports another one's private names,
fluxlab.__all__ names no submodule, and no command loads scipy or numpy.ma,
whose imports would cost every invocation more than numpy itself."""

import ast
import json
import os
import subprocess
import sys
import types

import fluxlab
from test_golden import CASES

PACKAGE_DIR = os.path.dirname(os.path.abspath(fluxlab.__file__))


def _private_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fluxlab"
        if not internal:
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                found.append(f"{os.path.basename(path)}:{node.lineno} imports {name}")
    return found


def test_no_private_cross_module_imports():
    found = []
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if entry.endswith(".py"):
            found += _private_imports(os.path.join(PACKAGE_DIR, entry))
    assert found == []


def test_all_lists_only_the_reexported_names():
    modules = [
        name for name in fluxlab.__all__
        if isinstance(getattr(fluxlab, name), types.ModuleType)
    ]
    assert modules == []
    assert "guiding_bands" in fluxlab.__all__
    assert "sample_values" not in fluxlab.__all__
    assert "rank_runs" not in fluxlab.__all__


_LOADED_AFTER_EVERY_COMMAND = """
import json, os, sys, tempfile
from fluxlab.cli import main

with tempfile.TemporaryDirectory() as scratch:
    for i, argv in enumerate(json.load(sys.stdin)):
        assert main(argv + ["--out", os.path.join(scratch, f"{i}.csv")]) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_no_command_imports_scipy_or_numpy_ma():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EVERY_COMMAND],
        input=json.dumps([argv for argv, _ in CASES.values()]),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    heavy = [
        name
        for name in loaded
        if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]
    ]
    assert heavy == []
