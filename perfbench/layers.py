"""Per-layer tracing from outside the program.

`install(tracer)` replaces each public function listed in TARGETS, in every
namespace that holds it, by a wrapper that records a span: name, start, end,
parent span and a few counts taken from the call's arguments or result.
Replacing the object in every namespace matters because the modules import
one another's functions by name (`fluxlab.cli` holds its own reference to
`spectrum_union`, `fluxlab.continuum` to `check_hermitian`, ...).

numpy kernels are wrapped in `numpy.linalg`, where every module looks them up
at call time, so a kernel span is a child of the library span that called it.

`layer_metrics(spans)` turns the recorded spans into the per-layer metrics.
It runs in the benchmark's parent process and needs no numpy.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

# (module, attribute, span name). A target that does not exist is skipped and
# reported, so a later refactor degrades the trace instead of breaking runs.
TARGETS = (
    ("fluxlab.cli", "build_parser", "cli.build_parser"),
    ("fluxlab.cli", "parse_config", "cli.parse_config"),
    ("fluxlab.cli", "run_command", "cli.run_command"),
    ("fluxlab.cli", "emit", "cli.emit"),
    ("fluxlab.lattice", "BlochFiberFamily.batch", "lattice.batch"),
    ("fluxlab.lattice", "symmetric_gauge_box", "lattice.symmetric_gauge_box"),
    ("fluxlab.lattice", "add_onsite_disorder", "lattice.add_onsite_disorder"),
    ("fluxlab.spectra", "spectrum_union", "spectra.spectrum_union"),
    ("fluxlab.spectra", "band_intervals", "spectra.band_intervals"),
    ("fluxlab.spectra", "hausdorff", "spectra.hausdorff"),
    ("fluxlab.spectra", "dos", "spectra.dos"),
    ("fluxlab.spectra", "check_hermitian", "spectra.check_hermitian"),
    ("fluxlab.disorder", "gap_fill_fraction", "disorder.gap_fill_fraction"),
    ("fluxlab.disorder", "anderson_realization", "disorder.anderson_realization"),
    ("fluxlab.disorder", "ensemble_dos", "disorder.ensemble_dos"),
    ("fluxlab.continuum", "continuum_hamiltonian", "continuum.continuum_hamiltonian"),
    ("fluxlab.continuum", "lll_effective", "continuum.lll_effective"),
    ("fluxlab.continuum", "next_level_coupling", "continuum.next_level_coupling"),
    ("fluxlab.continuum", "strong_field_report", "continuum.strong_field_report"),
    ("fluxlab.dynamics", "spectral_projection", "dynamics.spectral_projection"),
    ("fluxlab.dynamics", "nagy_intertwiner", "dynamics.nagy_intertwiner"),
    ("fluxlab.dynamics", "defect_curve", "dynamics.defect_curve"),
    ("fluxlab.dynamics", "defect_scaling", "dynamics.defect_scaling"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "norm", "linalg.norm2"),
)

KERNELS = ("linalg.eigvalsh", "linalg.eigh", "linalg.norm2")

# Flop estimates per real n x n matrix (Golub & Van Loan): symmetric
# eigenvalues 4n^3/3, eigenvalues and vectors 9n^3, singular values of a
# square matrix 8n^3/3. Complex arithmetic costs about four times as much.
# The resulting `linalg.flops` is computed from shapes, not counted.
FLOP_FACTORS = {"linalg.eigvalsh": 4.0 / 3.0, "linalg.eigh": 9.0, "linalg.norm2": 8.0 / 3.0}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if info is not None:
                spans[index][4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _matrix_info(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = tuple(int(n) for n in getattr(a, "shape", ()))
    return {
        "matrices": math.prod(shape[:-2]),
        "dim": shape[-1] if shape else 0,
        "complex": bool(getattr(a, "dtype", None) is not None and a.dtype.kind == "c"),
        "shape": "x".join(str(n) for n in shape),
    }


def _fiber_info(args, kwargs, result):
    return {"fibers": math.prod(result.shape[:-2]), "bytes": int(result.nbytes)}


def _hamiltonian_info(args, kwargs, result):
    return {"dim": int(result.matrix.shape[0])}


INFO = {
    "lattice.batch": _fiber_info,
    "continuum.continuum_hamiltonian": _hamiltonian_info,
    "linalg.eigvalsh": _matrix_info,
    "linalg.eigh": _matrix_info,
    "linalg.norm2": _matrix_info,
}


def _norm2_only(traced, original):
    """Trace `numpy.linalg.norm` only for the matrix 2-norm, which is an SVD."""

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2 and getattr(x, "ndim", 0) == 2:
            return traced(x, ord, *args, **kwargs)
        return original(x, ord, *args, **kwargs)

    return norm


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry in each loaded namespace that holds it."""
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fluxlab" or name.startswith("fluxlab."))
    ]
    for module_name, attr, span in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(span, original, INFO.get(span))
        if span == "linalg.norm2":
            wrapper = _norm2_only(wrapper, original)
        setattr(owner, leaf, wrapper)
        if path:
            continue
        for module in namespaces:
            if getattr(module, leaf, None) is original:
                setattr(module, leaf, wrapper)


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost_total(spans, names):
    """Total time in spans named in `names`, not counting a span nested in
    another one of the same group (so `hausdorff` inside `band_intervals`, or
    a realization inside `ensemble_dos`, is not counted twice)."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "cli.cmd_self_s": "s",
    "cli.emit_s": "s",
    "cli.table_bytes": "bytes",
    "lattice.fiber_build_s": "s",
    "lattice.batch_calls": "count",
    "lattice.fibers": "count",
    "lattice.fiber_bytes": "bytes",
    "lattice.box_build_s": "s",
    "spectra.union_s": "s",
    "spectra.post_s": "s",
    "spectra.check_s": "s",
    "linalg.eigvalsh_calls": "count",
    "linalg.eigvalsh_matrices": "count",
    "linalg.eigvalsh_max_dim": "dim",
    "linalg.eigvalsh_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_max_dim": "dim",
    "linalg.eigh_s": "s",
    "linalg.norm2_calls": "count",
    "linalg.norm2_s": "s",
    "linalg.flops": "flop",
    "continuum.build_s": "s",
    "continuum.dim_max": "dim",
    "continuum.lll_s": "s",
    "dynamics.projection_s": "s",
    "dynamics.intertwiner_s": "s",
    "dynamics.propagate_s": "s",
    "disorder.realization_s": "s",
    "disorder.dos_s": "s",
    "disorder.ensemble_self_s": "s",
    "disorder.realizations": "count",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced invocation, keyed by metric name.

    The `proc.*`, `cli.table_bytes` and `trace.overhead_s` metrics come from
    the process and its files, not from spans, and are filled in by the caller.
    """
    own = self_times(spans)

    def total(*names):
        return _outermost_total(spans, set(names))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def info_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    def info_max(name, key):
        return max((s[4][key] for s in spans if s[0] == name and s[4]), default=0)

    def self_total(name):
        return sum(t for s, t in zip(spans, own) if s[0] == name)

    flops = 0.0
    for name, _, _, _, info in spans:
        if name in FLOP_FACTORS and info:
            scale = 4.0 if info["complex"] else 1.0
            flops += FLOP_FACTORS[name] * scale * info["matrices"] * info["dim"] ** 3
    return {
        "cli.parse_s": total("cli.build_parser", "cli.parse_config"),
        "cli.cmd_self_s": self_total("cli.run_command"),
        "cli.emit_s": total("cli.emit"),
        "lattice.fiber_build_s": total("lattice.batch"),
        "lattice.batch_calls": calls("lattice.batch"),
        "lattice.fibers": info_sum("lattice.batch", "fibers"),
        "lattice.fiber_bytes": info_sum("lattice.batch", "bytes"),
        "lattice.box_build_s": total(
            "lattice.symmetric_gauge_box", "lattice.add_onsite_disorder"
        ),
        "spectra.union_s": total("spectra.spectrum_union"),
        "spectra.post_s": total(
            "spectra.band_intervals",
            "spectra.hausdorff",
            "spectra.dos",
            "disorder.gap_fill_fraction",
        ),
        "spectra.check_s": total("spectra.check_hermitian"),
        "linalg.eigvalsh_calls": calls("linalg.eigvalsh"),
        "linalg.eigvalsh_matrices": info_sum("linalg.eigvalsh", "matrices"),
        "linalg.eigvalsh_max_dim": info_max("linalg.eigvalsh", "dim"),
        "linalg.eigvalsh_s": total("linalg.eigvalsh"),
        "linalg.eigh_calls": calls("linalg.eigh"),
        "linalg.eigh_max_dim": info_max("linalg.eigh", "dim"),
        "linalg.eigh_s": total("linalg.eigh"),
        "linalg.norm2_calls": calls("linalg.norm2"),
        "linalg.norm2_s": total("linalg.norm2"),
        "linalg.flops": flops,
        "continuum.build_s": total("continuum.continuum_hamiltonian"),
        "continuum.dim_max": info_max("continuum.continuum_hamiltonian", "dim"),
        "continuum.lll_s": total("continuum.lll_effective", "continuum.next_level_coupling"),
        "dynamics.projection_s": total("dynamics.spectral_projection"),
        "dynamics.intertwiner_s": total("dynamics.nagy_intertwiner"),
        "dynamics.propagate_s": total("dynamics.defect_curve"),
        "disorder.realization_s": total("disorder.anderson_realization"),
        "disorder.dos_s": total("spectra.dos"),
        "disorder.ensemble_self_s": self_total("disorder.ensemble_dos"),
        "disorder.realizations": calls("disorder.anderson_realization"),
    }


def kernel_shapes(spans) -> dict:
    """Calls per kernel and operand shape, e.g. {"linalg.eigvalsh": {"900x900": 21}}."""
    out = {}
    for name, _, _, _, info in spans:
        if name in KERNELS and info:
            shapes = out.setdefault(name, {})
            shapes[info["shape"]] = shapes.get(info["shape"], 0) + 1
    return out


def span_table(spans) -> dict:
    """Calls, total and self time per span name: where one run's time went."""
    own = self_times(spans)
    table = {}
    for (name, start, end, _, _), self_s in zip(spans, own):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return table
