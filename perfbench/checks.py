"""Correctness of one CLI invocation: the checks behind `failed` and
`error_rate`.

A run fails when any of these holds:
- the exit code is nonzero, or stderr holds a traceback;
- its table differs by a single byte from the first table of its set (the
  README promises bit-for-bit reruns);
- the table or its `.meta.json` sidecar is missing or malformed;
- a value differs from the stored reference table by more than
  ATOL + RTOL * |reference|;
- a column the workload checks by gate breaks the command's own gate.

Columns that depend on a random stream the program may change on purpose
(`gate_columns`) are never compared with the reference. Columns and keys
that depend on the seed (`seeded`) are compared only when the run's seed is
the reference seed; at other seeds they are held to the gates alone.
"""

from __future__ import annotations

import json
import math

# Roundoff tolerance against the reference tables. It is looser than both
# the 12 significant digits the CSV prints and the 2.2e-14 by which a
# Chambers-relation fiber dedup moved eigenvalues, and far tighter than any
# gate of the commands (1e-10 on defect_zero is the tightest, and that
# column is checked by its gate only).
ATOL = 1e-10
RTOL = 1e-10


def parse_table(text: str) -> dict:
    """Split a fluxlab CSV table into metadata, column names and rows."""
    meta = {}
    lines = text.splitlines()
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        line = lines[body][2:]
        body += 1
        if line.startswith("fluxlab "):
            meta["version"] = line
            continue
        key, value = line.split(": ", 1)
        meta[key] = value if key == "command" else json.loads(value)
    if body >= len(lines):
        raise ValueError("table has no column header")
    columns = lines[body].split(",")
    rows = [line.split(",") for line in lines[body + 1 :]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("row width differs from the header")
    return {"meta": meta, "columns": columns, "rows": rows}


def _close(a, b) -> bool:
    """Equal, or both numbers within the roundoff tolerance (NaN == NaN)."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_close(a[k], b[k]) for k in a)
        )
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(_close(x, y) for x, y in zip(a, b))
        )
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= ATOL + RTOL * abs(y)


def compare_reference(table: dict, ref: dict, skip: set) -> list:
    """Differences between a parsed table and the parsed reference,
    ignoring the column names, metadata keys and config keys in `skip`."""
    problems = []
    if table["columns"] != ref["columns"]:
        return [f"columns {table['columns']} differ from reference {ref['columns']}"]
    if len(table["rows"]) != len(ref["rows"]):
        return [f"{len(table['rows'])} rows, reference has {len(ref['rows'])}"]
    if table["meta"].keys() != ref["meta"].keys():
        problems.append(f"metadata keys {sorted(table['meta'])} differ from reference")
    for key in ref["meta"].keys() & table["meta"].keys():
        got, want = table["meta"][key], ref["meta"][key]
        if key in skip:
            continue
        if key == "config":
            got = {k: v for k, v in got.items() if k not in skip}
            want = {k: v for k, v in want.items() if k not in skip}
        if not _close(got, want):
            problems.append(f"metadata {key!r}: {got!r} vs reference {want!r}")
    for col, name in enumerate(ref["columns"]):
        if name in skip:
            continue
        for i, (row, ref_row) in enumerate(zip(table["rows"], ref["rows"])):
            if not _close(row[col], ref_row[col]):
                problems.append(
                    f"row {i} {name}: {row[col]} vs reference {ref_row[col]}"
                )
                break
    return problems


def _column(table: dict, name: str) -> list:
    col = table["columns"].index(name)
    return [row[col] for row in table["rows"]]


def _defect_gates(table: dict) -> list:
    """dynamics-defect's own pass conditions, read back from its table."""
    problems = []
    if any(v != "true" for v in _column(table, "separated")):
        problems.append("a lowest cluster is not separated")
    if any(not float(v) < 1e-10 for v in _column(table, "defect_zero")):
        problems.append("defect_zero is not below 1e-10")
    if any(not float(v) <= 2.0 for v in _column(table, "max_defect")):
        problems.append("max_defect exceeds 2")
    slopes = [float(v) for v in _column(table, "slope")]
    if not all(b < a for a, b in zip(slopes, slopes[1:])):
        problems.append(f"slopes {slopes} are not strictly decreasing")
    return problems


def _disorder_gates(table: dict) -> list:
    """Invariants of an ensemble-averaged, normalised DOS table."""
    problems = []
    energy = [float(v) for v in _column(table, "energy")]
    density = [float(v) for v in _column(table, "density")]
    stderr = [float(v) for v in _column(table, "stderr")]
    if len(energy) != table["meta"]["config"]["bins"]:
        problems.append(f"{len(energy)} rows for {table['meta']['config']['bins']} bins")
    if min(density) < 0.0 or min(stderr) < 0.0:
        problems.append("negative density or standard error")
    mass = sum(density) * (energy[1] - energy[0])
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"DOS integrates to {mass!r}, not 1")
    fill = table["meta"]["gap_fill_fraction"]
    if not 0.0 <= fill <= 1.0:
        problems.append(f"gap_fill_fraction {fill!r} outside [0, 1]")
    return problems


GATES = {"defect": _defect_gates, "disorder": _disorder_gates}


def check_table(workload: str, spec: dict, text: str, seed: int, ref_text: str) -> list:
    """Problems with one table of `workload`; an empty list means correct."""
    try:
        table = parse_table(text)
        ref = parse_table(ref_text)
    except ValueError as exc:
        return [f"malformed table: {exc}"]
    skip = set(spec.get("gate_columns", ()))
    if spec["seed_flag"] is not None and seed != spec["reference_seed"]:
        skip.update(spec.get("seeded", ()))
    problems = compare_reference(table, ref, skip)
    if workload in GATES:
        try:
            problems += GATES[workload](table)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"gate check could not read the table: {exc!r}")
    return problems


def check_sidecar(text: str, table_text: str, command: str) -> list:
    """The `.meta.json` sidecar names the command, says ok and counts the rows."""
    try:
        sidecar = json.loads(text)
        rows = len(parse_table(table_text)["rows"])
    except ValueError as exc:
        return [f"malformed sidecar or table: {exc}"]
    problems = []
    if sidecar.get("command") != command:
        problems.append(f"sidecar command {sidecar.get('command')!r}, expected {command!r}")
    if sidecar.get("ok") is not True:
        problems.append("sidecar says the run did not pass")
    if sidecar.get("rows") != rows:
        problems.append(f"sidecar rows {sidecar.get('rows')!r}, table has {rows}")
    return problems
