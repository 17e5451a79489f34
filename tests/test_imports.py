"""Module boundaries: no fluxlab module imports another one's private names."""

import ast
import os

import fluxlab

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
