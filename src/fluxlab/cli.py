"""Command-line surface: one subcommand per experiment, CSV/JSON artifacts.

Artifact contract: the main table (CSV with `#`-prefixed metadata lines, or a
JSON document) is a pure function of the resolved config, so reruns are byte
identical; volatile facts (wall time) go to a `.meta.json` sidecar instead.
All files are written atomically and nothing partial survives a failure.

Exit codes: 0 success, 2 configuration error (an operator too large for
memory included), 3 numerical check failed, 4 infeasible model (flux
quantization, cluster separation, degenerate bands).
Each command declares its pass conditions as Gates; main reports them on
stderr and in the sidecar, and the first failing one sets the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .continuum import (
    FourierPotential,
    StrongFieldRow,
    coset_eigh,
    strong_field_report,
    torus_basis,
)
from .disorder import anderson_realization, ensemble_dos, gap_fill_fraction
from .dynamics import DefectRow, defect_scaling
from .errors import ConfigError, InfeasibleModelError, NumericalCheckError
from .lattice import (
    NEAREST_NEIGHBOR,
    RationalFlux,
    add_onsite_disorder,
    box_flux,
    hofstadter_family,
    peierls_quantize,
    symmetric_gauge_box,
)
from .spectra import (
    band_intervals,
    band_quantiles,
    chern_numbers,
    distance_to_intervals,
    eigenvalues_hermitian,
    exact_bands,
    fiber_eigenvalues,
    hausdorff,
    spectrum_union,
    tknn_cherns,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict


@dataclass(frozen=True)
class Gate:
    """A numerical check of a run: it passes when value <= limit (so a NaN
    value fails), and a failing gate exits with `code`."""

    name: str
    value: float
    limit: float
    code: int = 3

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.limit)


def decreasing_gate(rows, column: str) -> Gate:
    """Gate on `column` strictly decreasing over the separated rows: the
    value counts adjacent pairs (a, b) with `not b < a`, so NaN counts too."""
    values = [getattr(row, column) for row in rows if row.separated]
    pairs = sum(not b < a for a, b in zip(values, values[1:]))
    return Gate(f"{column}_not_decreasing", pairs, 0)


def finite_gate(name: str, values) -> Gate:
    """Gate on every value being finite: the value counts the NaN and
    infinite entries."""
    count = int(np.count_nonzero(~np.isfinite(np.asarray(values, dtype=float))))
    return Gate(f"{name}_not_finite", count, 0)


def _worst(values) -> float:
    """Largest value, NaN if any value is NaN, 0.0 when there is none."""
    values = list(values)
    return float(np.max(values)) if values else 0.0


# Limit of the exact-band gates of butterfly, fiber-spectrum and
# harper-spectrum; the grid eigenvalues of the nearest-neighbour model sit
# within ~1e-14 of the bands.
_EXACT_BAND_TOL = 1e-10


def _separation_gate(rows) -> Gate:
    """Exit 4 unless every lowest cluster is separated; commands list it
    before their exit-3 gates so that it takes precedence."""
    return Gate("unseparated_rows", sum(not row.separated for row in rows), 0, code=4)


@dataclass
class RunArtifact:
    """The table (columns, rows, meta), a one-line stderr summary, and the
    gates that decide pass/FAIL; the first failing gate sets the exit code."""

    columns: list
    rows: list
    meta: dict
    summary: str
    gates: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(gate.passed for gate in self.gates)

    @property
    def exit_code(self) -> int:
        return next((gate.code for gate in self.gates if not gate.passed), 0)


def _float(value):
    """Parsed from its text, as the flag would be: a config-file true fails."""
    x = float(str(value))
    if not math.isfinite(x):
        raise ValueError("must be a finite number")
    return x


def _int(value):
    """Parsed from its text, as the flag would be: true, 2.7 and 2.0 fail."""
    return int(str(value))


def _at_least(cast, least):
    """Caster for values of `cast` that are >= least."""

    def checked(value):
        x = cast(value)
        if x < least:
            raise ValueError(f"must be >= {least}")
        return x

    return checked


_count = _at_least(_int, 1)
_count_or_zero = _at_least(_int, 0)
_tolerance = _at_least(_float, 0)


def _positive(value):
    x = _float(value)
    if x <= 0:
        raise ValueError("must be > 0")
    return x


def _choice(*names):
    """Caster for one of the given names."""

    def checked(value):
        name = str(value)
        if name not in names:
            raise ValueError(f"must be {' or '.join(names)}")
        return name

    return checked


def _list_of(cast):
    """Caster for a nonempty list of `cast` values: a list or comma-separated text."""

    def checked(value):
        if not isinstance(value, (list, tuple)):
            value = [tok.strip() for tok in str(value).split(",") if tok.strip()]
        if not value:
            raise ValueError("must list at least one value")
        return [cast(x) for x in value]

    return checked


def _flux(value):
    """A flux string p/q, kept as given so the config header keeps its bytes."""
    RationalFlux.from_string(str(value))
    return str(value)


_float_list = _list_of(_float)


def _time_grid(value):
    times = _float_list(value)
    if not any(times):
        raise ValueError("must hold a nonzero time")
    if min(times) < 0:
        raise ValueError("must not hold a negative time")
    if not math.isfinite(sum(t * t for t in times)):
        raise ValueError("sum of squared times must be finite")
    return times


def _field_value(value):
    """Field parameter given as a float or a fraction string like '1/8'."""
    try:
        return _float(float(Fraction(str(value))))
    except ZeroDivisionError:
        raise ValueError("denominator must be nonzero") from None


_DEFAULT_TIMES = [0.5 * i for i in range(11)]

# name -> (caster, default, help); None default means "required".
_SPECS = {
    "butterfly": {
        "qmax": (_count, 20, "largest fiber denominator"),
        "kgrid": (_count, 64, "k points per axis"),
    },
    "fiber-spectrum": {
        "flux": (_flux, None, "rational flux p/q"),
        "kgrid": (_count, 200, "k points along k1"),
        "kgrid2": (_count_or_zero, 0, "k points along k2 (0 = same as kgrid)"),
    },
    "harper-spectrum": {
        "flux": (_flux, None, "rational frequency p/q"),
        "thetagrid": (_count, 64, "phase offsets sampled in [0, 1)"),
        "kgrid": (_count, 64, "Bloch momenta sampled in [0, 2 pi)"),
    },
    "peierls-check": {
        "flux": (_list_of(_flux), ["1/3", "2/5"], "flux values to test"),
        "kgrid": (_count, 16, "k points per axis"),
        "tol": (_tolerance, 1e-10, "eigenvalue agreement threshold"),
    },
    "gauge-check": {
        "B": (_field_value, 0.125, "field parameter (float or p/q)"),
        "L": (_count, 16, "torus side in sites"),
        "gap_tol": (_tolerance, 1.0, "band merge tolerance"),
        "tol": (_tolerance, 0.05, "pass threshold on the Hausdorff distance"),
    },
    "chern": {
        "flux": (_flux, "1/3", "rational flux p/q"),
        "kgrid": (_at_least(_int, 2), 30, "k points per axis"),
    },
    "continuum-spectrum": {
        "B": (_field_value, None, "field parameter"),
        "ncells": (_count, 4, "potential cells per torus side"),
        "nlevels": (_count, 6, "retained Landau levels"),
        "amplitude": (_float, 1.0, "cosine potential amplitude"),
    },
    "lll-compare": {
        "B": (_float_list, [10.0, 20.0, 40.0], "field values"),
        "ncells": (_count, 4, "potential cells per torus side"),
        "nlevels": (_count, 6, "retained Landau levels"),
        "amplitude": (_float, 1.0, "cosine potential amplitude"),
    },
    "dynamics-defect": {
        "B": (_float_list, [10.0, 20.0, 40.0], "field values"),
        "times": (_time_grid, _DEFAULT_TIMES, "time grid"),
        "ncells": (_count, 4, "potential cells per torus side"),
        "nlevels": (_count, 6, "retained Landau levels"),
        "amplitude": (_float, 1.0, "cosine potential amplitude"),
        "seed": (_int, 7, "wave packet seed"),
    },
    "disorder-dos": {
        "flux": (_flux, "1/3", "rational flux p/q"),
        "L": (_count, 30, "box side in sites"),
        "W": (_at_least(_float, 0), 2.0, "disorder strength"),
        "dist": (_choice("uniform", "gaussian"), "uniform",
                 "coupling distribution: uniform or gaussian"),
        "nseeds": (_count, 20, "ensemble size"),
        "seed": (_int, 0, "base seed"),
        "width": (_positive, 0.02, "DOS smoothing width"),
        "bins": (_count, 200, "DOS bins"),
        "gap_tol": (_tolerance, 0.05, "band merge tolerance for the clean spectrum"),
        "kgrid": (_count, 200, "k grid for the clean reference bands"),
    },
}

_COMMON = {
    "out": (str, "", "output table path ('' = print to stdout)"),
    "format": (_choice("csv", "json"), "csv", "table format: csv or json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxlab",
        description="magnetic lattice and Landau-level spectral experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for key, (_, default, help_text) in spec.items():
            cmd.add_argument(
                f"--{key.replace('_', '-')}",
                dest=key,
                help=f"{help_text} (default: {default!r})",
            )
        for key, (_, default, help_text) in _COMMON.items():
            cmd.add_argument(
                f"--{key}", dest=key, help=f"{help_text} (default: {default!r})"
            )
        cmd.add_argument("--config", dest="config", help="JSON config file")
    return parser


def _attach_dash_values(argv: list) -> list:
    """Write `--flag -1/3` as `--flag=-1/3`.

    argparse reads a token that starts with '-' as an option unless it is a
    plain decimal like -1 or -0.5, so negative fractions, exponents and -inf
    would lose their flag. Every flag but --help and --version takes one
    value, so a token after one of them that starts with a single '-' is
    that value (a lone -h still asks for help).
    """
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (
            flag.startswith("--")
            and "=" not in flag
            and flag not in ("--help", "--version")
            and token.startswith("-")
            and not token.startswith("--")
            and token != "-h"
        ):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Resolve defaults, config file, and flags (flags win) into a RunConfig."""
    command = args.command
    spec = dict(_SPECS[command])
    spec.update(_COMMON)
    params = {key: default for key, (_, default, _h) in spec.items()}

    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {config_path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {config_path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in spec:
                raise ConfigError(
                    f"unknown config key {key!r} for {command}; "
                    f"valid keys: {', '.join(sorted(spec))}"
                )
            params[key] = value

    for key in spec:
        if hasattr(args, key):
            params[key] = getattr(args, key)

    resolved = {}
    for key, value in params.items():
        caster = spec[key][0]
        if value is None:
            raise ConfigError(f"{command} requires --{key.replace('_', '-')}")
        try:
            resolved[key] = caster(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"bad value for --{key.replace('_', '-')}: {value!r} ({exc})"
            )
    # the atomic rename in emit would replace a device, FIFO or directory,
    # and its temporary file needs the parent directory
    out = resolved["out"]
    for path in [out, _sidecar_path(out)] if out else []:
        if os.path.exists(path) and not os.path.isfile(path):
            raise ConfigError(f"--out: {path!r} exists and is not a regular file")
    parent = os.path.dirname(os.path.abspath(out))
    if out and not os.path.isdir(parent):
        raise ConfigError(f"--out: {parent!r} is not a directory")
    return RunConfig(command=command, params=resolved)


def _cmd_butterfly(p: dict) -> RunArtifact:
    # every reduced p/q, p = 0..q, grouped by q: the s order, quantile ranks
    # and band corners of band_quantiles depend on q alone
    rows_of, outside = {}, []
    for q in range(1, p["qmax"] + 1):
        nums = [num for num in range(q + 1) if math.gcd(num, q) == 1]
        lo, hi, quarts, solved, bands = band_quantiles(
            q, nums, p["kgrid"], [0.25, 0.5, 0.75]
        )
        for i, num in enumerate(nums):
            outside.append(float(distance_to_intervals(solved[i], bands[i]).max()))
            table = np.column_stack((lo[i], hi[i], quarts[i].T)).tolist()
            rows_of[num, q] = [(num, q, band, *row) for band, row in enumerate(table)]
    fluxes = sorted(rows_of, key=lambda f: (f[0] / f[1], f[1]))
    rows = [row for flux in fluxes for row in rows_of[flux]]
    return RunArtifact(
        columns=["p", "q", "band", "e_min", "e_max", "q25", "q50", "q75"],
        rows=rows,
        meta={"n_flux_values": len(fluxes)},
        summary=f"{len(fluxes)} flux values, {len(rows)} band rows",
        gates=[Gate("outside_exact_bands", _worst(outside), _EXACT_BAND_TOL)],
    )


def _exact_band_table(flux, n1: int, n2: int) -> RunArtifact:
    """The exact_bands(flux) rows (band, e_lo, e_hi), checked against the
    spectrum_union of hofstadter_family(flux) on the n1 x n2 zone grid.

    The gate holds every sample eigenvalue to the bands. sample_hausdorff,
    which also counts the band points farthest from the sample (half the
    widest hole it leaves inside a band, or an edge it misses), records how
    well the grid covers the bands.
    """
    bands = exact_bands(flux)
    sample = spectrum_union(hofstadter_family(flux), n1, n2)
    outside = float(distance_to_intervals(sample, bands).max())
    rows = [(i, a, b) for i, (a, b) in enumerate(bands.tolist())]
    return RunArtifact(
        columns=["band", "e_lo", "e_hi"],
        rows=rows,
        meta={
            "n_eigenvalues": int(sample.size),
            "e_min": float(sample[0]),
            "e_max": float(sample[-1]),
            "sample_hausdorff": hausdorff(sample, bands),
        },
        summary=f"{len(rows)} band(s), checked by {sample.size} eigenvalues "
        f"in [{sample[0]:.6g}, {sample[-1]:.6g}]",
        gates=[Gate("outside_exact_bands", outside, _EXACT_BAND_TOL)],
    )


def _cmd_fiber_spectrum(p: dict) -> RunArtifact:
    flux = RationalFlux.from_string(p["flux"])
    return _exact_band_table(flux, p["kgrid"], p["kgrid2"] or p["kgrid"])


def _cmd_harper_spectrum(p: dict) -> RunArtifact:
    # The fiber at (k1, k2) = (k, 2 pi theta) is the Bloch-reduced 1D
    # cosine model at phase theta and momentum k.
    flux = RationalFlux.from_string(p["flux"])
    return _exact_band_table(flux, p["kgrid"], p["thetagrid"])


def _cmd_peierls_check(p: dict) -> RunArtifact:
    rows = []
    for flux_text in p["flux"]:
        flux = RationalFlux.from_string(flux_text)
        wq = fiber_eigenvalues(peierls_quantize(NEAREST_NEIGHBOR, flux), p["kgrid"])
        wr = fiber_eigenvalues(hofstadter_family(flux), p["kgrid"])
        rows.append((flux.p, flux.q, float(np.max(np.abs(wq - wr)))))
    return RunArtifact(
        columns=["p", "q", "max_eigenvalue_deviation"],
        rows=rows,
        meta={"tol": p["tol"], "kgrid": p["kgrid"]},
        summary=f"{len(rows)} flux value(s) on a {p['kgrid']}^2 k grid",
        gates=[
            Gate("max_eigenvalue_deviation", _worst(row[2] for row in rows), p["tol"])
        ],
    )


def _cmd_gauge_check(p: dict) -> RunArtifact:
    flux = box_flux(p["B"], p["L"])
    box = symmetric_gauge_box(p["B"], p["L"])
    box_vals = eigenvalues_hermitian(box)
    box_bands = band_intervals(box_vals, p["gap_tol"])
    exact = exact_bands(flux)
    fiber_bands = band_intervals(exact, p["gap_tol"])
    dist = hausdorff(box_bands, fiber_bands)
    containment = float(distance_to_intervals(box_vals, fiber_bands).max())
    rows = [
        (
            p["B"],
            p["L"],
            flux.p,
            flux.q,
            dist,
            containment,
            len(box_bands),
            len(fiber_bands),
        )
    ]
    return RunArtifact(
        columns=[
            "B",
            "L",
            "fiber_p",
            "fiber_q",
            "hausdorff",
            "containment",
            "box_bands",
            "fiber_bands",
        ],
        rows=rows,
        meta={"tol": p["tol"], "gap_tol": p["gap_tol"]},
        summary=f"fiber flux {flux.p}/{flux.q}, containment = {containment:.3e}",
        gates=[
            finite_gate("eigenvalue", np.concatenate([box_vals, exact.ravel()])),
            Gate("hausdorff", dist, p["tol"]),
        ],
    )


def _cmd_chern(p: dict) -> RunArtifact:
    flux = RationalFlux.from_string(p["flux"])
    tknn = tknn_cherns(flux)  # even q: the central bands touch, exit 4
    cherns = chern_numbers(hofstadter_family(flux), grid=p["kgrid"])
    total = sum(cherns)
    rows = [(band, c) for band, c in enumerate(cherns)]
    return RunArtifact(
        columns=["band", "chern"],
        rows=rows,
        meta={"kgrid": p["kgrid"], "sum": total},
        summary=f"{tuple(cherns)} sum {total}",
        gates=[
            Gate("abs_chern_sum", abs(total), 0),
            Gate("bands_off_tknn", sum(c != t for c, t in zip(cherns, tknn)), 0),
        ],
    )


def _cmd_continuum_spectrum(p: dict) -> RunArtifact:
    potential = FourierPotential.cosine_xy(p["amplitude"])
    basis = torus_basis(float(p["B"]), p["nlevels"], p["ncells"])
    b_used, n_flux = basis.field, basis.n_flux
    w = coset_eigh(basis, potential)
    rows = [(i, float(e)) for i, e in enumerate(w)]
    return RunArtifact(
        columns=["index", "energy"],
        rows=rows,
        meta={
            "field_requested": p["B"],
            "field_used": b_used,
            "n_flux": n_flux,
            "n_cells": basis.n_cells,
            "n_levels": basis.n_levels,
        },
        summary=f"B = {b_used:.9g} ({n_flux} flux quanta), "
        f"{len(rows)} levels in [{w[0]:.6g}, {w[-1]:.6g}]",
        gates=[finite_gate("energy", w)],
    )


def _increasing_fields(p: dict) -> list:
    """--B of a field sweep, whose decreasing gates read its rows in order."""
    used = [torus_basis(b, p["nlevels"], p["ncells"]).field for b in p["B"]]
    if any(not a < b for a, b in zip(used, used[1:])):
        raise ConfigError(f"bad value for --B: fields {used} not strictly increasing")
    return p["B"]


def _cmd_lll_compare(p: dict) -> RunArtifact:
    potential = FourierPotential.cosine_xy(p["amplitude"])
    report = strong_field_report(
        _increasing_fields(p), potential, n_levels=p["nlevels"], n_cells=p["ncells"]
    )
    return RunArtifact(
        columns=[f.name for f in fields(StrongFieldRow)],
        rows=[astuple(r) for r in report],
        meta={"ncells": p["ncells"], "nlevels": p["nlevels"]},
        summary="distances " + ", ".join(f"{r.distance:.4e}" for r in report),
        gates=[
            _separation_gate(report),
            decreasing_gate(report, "distance"),
            finite_gate(
                "distance_or_coupling",
                [(r.distance, r.coupling_next_level) for r in report if r.separated],
            ),
        ],
    )


def _cmd_dynamics_defect(p: dict) -> RunArtifact:
    potential = FourierPotential.cosine_xy(p["amplitude"])
    report = defect_scaling(
        _increasing_fields(p),
        potential,
        p["times"],
        n_levels=p["nlevels"],
        n_cells=p["ncells"],
        seed=p["seed"],
    )
    separated = [r for r in report if r.separated]
    return RunArtifact(
        columns=[f.name for f in fields(DefectRow)],
        rows=[astuple(r) for r in report],
        meta={
            "ncells": p["ncells"],
            "nlevels": p["nlevels"],
            "seed": p["seed"],
            "times": list(p["times"]),
        },
        summary="slopes " + ", ".join(f"{r.slope:.4e}" for r in report),
        gates=[
            _separation_gate(report),
            decreasing_gate(report, "slope"),
            # d(0) must be strictly below 1e-10
            Gate(
                "defect_zero",
                _worst(r.defect_zero for r in separated),
                math.nextafter(1e-10, 0.0),
            ),
            Gate("max_defect", _worst(r.max_defect for r in separated), 2.0),
        ],
    )


def _cmd_disorder_dos(p: dict) -> RunArtifact:
    flux = RationalFlux.from_string(p["flux"])
    # Whether there is a gap at all is read off the exact bands merged at
    # --gap-tol, so the holes of a coarse k grid cannot open one.
    if len(band_intervals(exact_bands(flux), p["gap_tol"])) < 2:
        raise ConfigError(
            f"clean spectrum at flux {flux.p}/{flux.q} has no gap to fill "
            f"(--gap-tol {p['gap_tol']:g})"
        )
    clean = symmetric_gauge_box(flux.value / 2.0, p["L"])
    # Clean gaps come from the dense fiber spectrum (the crystal's actual
    # band set): the finite box samples each band at only L^2 momenta, and
    # those within-band sampling holes would masquerade as gaps.
    reference = spectrum_union(hofstadter_family(flux), p["kgrid"])
    clean_bands = band_intervals(reference, p["gap_tol"])
    clean_vals = eigenvalues_hermitian(clean)
    pad = 8.0 * p["width"]
    bounds = (float(clean_vals[0]) - pad - p["W"], float(clean_vals[-1]) + pad + p["W"])
    # a NaN range comes from a NaN clean eigenvalue and is left to the gates
    if math.isinf(bounds[1] - bounds[0]):
        raise ConfigError(
            f"--W {p['W']:g} and --width {p['width']:g} put the DOS range "
            f"[{bounds[0]:g}, {bounds[1]:g}] beyond the float limit"
        )

    # a real diagonal leaves M - M^dag as it is, so the clean check covers
    # every realization; each one rewrites the diagonal of the one box
    clean_diagonal = clean.diagonal().copy()

    def builder(seed):
        noise = anderson_realization(p["L"], p["dist"], p["W"], seed)
        return np.linalg.eigvalsh(add_onsite_disorder(clean, noise, clean_diagonal))

    edges, density, stderr = ensemble_dos(
        builder,
        p["nseeds"],
        p["seed"],
        width=p["width"],
        bins=p["bins"],
        bounds=bounds,
    )
    fill = gap_fill_fraction(clean_bands, edges, density)
    centers = 0.5 * (edges[:-1] + edges[1:])
    rows = list(zip(centers.tolist(), density.tolist(), stderr.tolist()))
    return RunArtifact(
        columns=["energy", "density", "stderr"],
        rows=rows,
        meta={
            "gap_fill_fraction": fill,
            "clean_bands": clean_bands.tolist(),
            "W": p["W"],
            "nseeds": p["nseeds"],
            "base_seed": p["seed"],
        },
        summary=f"W = {p['W']:g}, {p['nseeds']} seeds, "
        f"gap fill fraction = {fill:.4f}",
        gates=[
            finite_gate("dos", np.concatenate([density, stderr, [fill]]))
        ],
    )


_COMMANDS = {
    "butterfly": _cmd_butterfly,
    "fiber-spectrum": _cmd_fiber_spectrum,
    "harper-spectrum": _cmd_harper_spectrum,
    "peierls-check": _cmd_peierls_check,
    "gauge-check": _cmd_gauge_check,
    "chern": _cmd_chern,
    "continuum-spectrum": _cmd_continuum_spectrum,
    "lll-compare": _cmd_lll_compare,
    "dynamics-defect": _cmd_dynamics_defect,
    "disorder-dos": _cmd_disorder_dos,
}


def run_command(cfg: RunConfig) -> RunArtifact:
    return _COMMANDS[cfg.command](cfg.params)


def _fmt(value) -> str:
    # floats first: most table values are floats (np.float64 is one), and
    # neither bool nor np.bool_ is
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _table_config(cfg: RunConfig) -> str:
    safe = {k: v for k, v in cfg.params.items() if k != "out"}
    return json.dumps(safe, sort_keys=True, separators=(",", ":"))


def render_csv(artifact: RunArtifact, cfg: RunConfig) -> str:
    lines = [
        f"# fluxlab {__version__}",
        f"# command: {cfg.command}",
        f"# config: {_table_config(cfg)}",
    ]
    for key in sorted(artifact.meta):
        lines.append(f"# {key}: {json.dumps(artifact.meta[key])}")
    lines.append(",".join(artifact.columns))
    for row in artifact.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(artifact: RunArtifact, cfg: RunConfig) -> str:
    doc = {
        "version": __version__,
        "command": cfg.command,
        "config": json.loads(_table_config(cfg)),
        "meta": {key: _json_value(v) for key, v in artifact.meta.items()},
        "columns": artifact.columns,
        "rows": [[_json_value(v) for v in row] for row in artifact.rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _json_value(value):
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file renamed onto it, with the
    mode open(path, "w") leaves: path's own, else 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fluxlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0o022)
        os.umask(umask)
        exists = os.path.exists(path)
        os.chmod(tmp, os.stat(path).st_mode & 0o7777 if exists else 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".meta.json"


def emit(artifact: RunArtifact, cfg: RunConfig, wall_time: float) -> None:
    text = (
        render_csv(artifact, cfg)
        if cfg.params["format"] == "csv"
        else render_json(artifact, cfg)
    )
    out = cfg.params["out"]
    if not out:
        sys.stdout.write(text)
        return
    sidecar = {
        "version": __version__,
        "command": cfg.command,
        "config": json.loads(_table_config(cfg)),
        "ok": artifact.ok,
        "gates": [
            {
                "name": g.name,
                "value": _json_value(g.value),
                "limit": _json_value(g.limit),
                "passed": g.passed,
            }
            for g in artifact.gates
        ],
        "rows": len(artifact.rows),
        "wall_time_s": wall_time,
    }
    sidecar_path = _sidecar_path(out)
    written = []
    try:
        _atomic_write(out, text)
        written.append(out)
        _atomic_write(sidecar_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        written.append(sidecar_path)
    except BaseException:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise


# First match wins: numpy's LinAlgError is a ValueError.
_EXIT_CODES = {
    np.linalg.LinAlgError: 3,
    ConfigError: 2,
    ValueError: 2,
    OSError: 2,
    NumericalCheckError: 3,
    InfeasibleModelError: 4,
    MemoryError: 2,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_dash_values(argv))
    started = time.monotonic()
    try:
        # overflow and NaN reach the gates and checks, not numpy warnings
        with np.errstate(all="ignore"):
            cfg = parse_config(args)
            artifact = run_command(cfg)
            emit(artifact, cfg, wall_time=time.monotonic() - started)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    print(f"{cfg.command}: {artifact.summary}", file=sys.stderr)
    for g in artifact.gates:
        verdict = "pass" if g.passed else "FAIL"
        print(
            f"  {g.name} = {g.value:.6g} (limit {g.limit:.6g}) -> {verdict}",
            file=sys.stderr,
        )
    return artifact.exit_code


if __name__ == "__main__":
    sys.exit(main())
