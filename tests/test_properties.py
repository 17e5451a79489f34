"""Property tests: Hausdorff metric axioms, Chambers invariance, Chern numbers
against the TKNN Diophantine rule, the guiding-centre coset split of the
continuum operator, and the exit-code contract of the continuum, lattice and
disorder commands.

Examples are derandomized and no example database is kept, so every run
checks the same cases. Hypothesis also caches the literals it scans from the
source under its home directory; with the home at os.devnull that cache
cannot be written, and a run leaves no files behind.
"""

import io
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fluxlab import (
    FourierPotential,
    RationalFlux,
    chern_numbers,
    continuum_hamiltonian,
    coset_count,
    coset_eigh,
    exact_bands,
    hausdorff,
    hofstadter_family,
    plane_wave_element,
    torus_basis,
)
from fluxlab.cli import main
from oracles import dense_eigh, tknn_cherns

set_hypothesis_home_dir(os.devnull)
fixed = settings(derandomize=True, database=None, deadline=None)


@st.composite
def interval_unions(draw):
    """Disjoint closed intervals as an ascending (n, 2) array; some are points."""
    cuts = draw(
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12, unique=True)
    )
    cuts = np.sort(cuts)[: 2 * (len(cuts) // 2)]
    los, his = cuts[0::2], cuts[1::2]
    points = draw(st.lists(st.booleans(), min_size=los.size, max_size=los.size))
    return np.column_stack((los, np.where(points, los, his)))


def forms(iv):
    """Every accepted form of one interval union; the flat value array only
    describes a union of points."""
    out = [iv]
    if np.array_equal(iv[:, 0], iv[:, 1]):
        out.append(iv[:, 0])
    return out


@fixed
@given(interval_unions(), interval_unions(), interval_unions())
def test_hausdorff_metric_axioms(a, b, c):
    dab = hausdorff(a, b)
    assert dab >= 0.0
    assert hausdorff(b, a) == dab
    assert hausdorff(a, a) == 0.0
    assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12
    assert {hausdorff(fa, fb) for fa in forms(a) for fb in forms(b)} == {dab}


@st.composite
def fluxes(draw, qmax=12):
    q = draw(st.integers(1, qmax))
    p = draw(st.integers(0, q).filter(lambda p: gcd(p, q) == 1))
    return RationalFlux(p, q)


# maps of k that keep cos(q k1) + cos(q k2)
CHAMBERS_MOVES = {
    "swap": lambda k1, k2, q: (k2, k1),
    "shift_k1": lambda k1, k2, q: (k1 + 2.0 * np.pi / q, k2),
    "shift_k2": lambda k1, k2, q: (k1, k2 - 2.0 * np.pi / q),
    "reflect": lambda k1, k2, q: (-k1, k2),
}


@fixed
@given(
    fluxes(),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, 2.0 * np.pi),
    st.sampled_from(sorted(CHAMBERS_MOVES)),
)
def test_chambers_invariance(flux, k1, k2, move):
    family = hofstadter_family(flux)
    w = np.linalg.eigvalsh(family.matrix(k1, k2))
    moved = np.linalg.eigvalsh(family.matrix(*CHAMBERS_MOVES[move](k1, k2, flux.q)))
    assert np.max(np.abs(w - moved)) < 1e-12
    bands = exact_bands(flux)
    assert np.all(w >= bands[:, 0] - 1e-12)
    assert np.all(w <= bands[:, 1] + 1e-12)


ODD_Q_FLUXES = [
    RationalFlux(p, q) for q in range(3, 12, 2) for p in range(1, q) if gcd(p, q) == 1
]


@fixed
@given(st.sampled_from(ODD_Q_FLUXES))
def test_chern_numbers_match_the_tknn_rule(flux):
    cherns = chern_numbers(hofstadter_family(flux), grid=30)
    assert cherns == tknn_cherns(flux.p, flux.q)
    assert sum(cherns) == 0


@st.composite
def torus_potentials(draw):
    """(n_cells, real potential) whose harmonics (n, m) are multiples of
    1 / n_cells, each with its conjugate partner."""
    n_cells = draw(st.integers(1, 4))
    steps = st.integers(-2 * n_cells, 2 * n_cells)
    coefficients = st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    harmonics = []
    for a, b, c in draw(st.lists(st.tuples(steps, steps, coefficients), max_size=3)):
        n, m = a / n_cells, b / n_cells
        harmonics += [(n, m, c), (-n, -m, c.conjugate())]
    return n_cells, FourierPotential(harmonics)


@fixed
@given(torus_potentials(), st.integers(1, 24), st.integers(1, 3))
def test_plane_wave_elements_never_cross_cosets(drawn, n_flux, n_levels):
    n_cells, potential = drawn
    basis = torus_basis(math.pi * n_flux / n_cells**2, n_levels, n_cells)
    assert basis.n_flux == n_flux
    g = coset_count(basis, potential)
    coset = np.arange(basis.dim) % n_flux % g
    across = coset[:, None] != coset[None, :]
    for n, m, _ in potential.harmonics:
        assert not np.any(plane_wave_element(basis, (n, m))[across]), (n, m, g)
    h = continuum_hamiltonian(basis, potential).matrix
    assert np.max(np.abs(coset_eigh(h, basis, potential) - dense_eigh(h))) < 1e-12


def table_rows(csv_text):
    """Rows of a CSV table as {column: text}, metadata lines skipped."""
    header, *rows = [line for line in csv_text.splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def usually(valid, invalid, one_in=4):
    """Draws from `invalid` one time in `one_in`."""
    return st.integers(1, one_in).flatmap(lambda i: invalid if i == 1 else valid)


def spelled(flags, separate):
    """Flag tokens, either `--key value` pairs or `--key=value`; a negative
    value such as -1/3 or -1e-12 must mean the same in both spellings."""
    if separate:
        return [tok for key, value in flags.items() for tok in (f"--{key}", str(value))]
    return [f"--{key}={value}" for key, value in flags.items()]


counts = usually(st.sampled_from(["1", "2", "3"]), st.sampled_from(["-1", "0", "2.7"]))


@fixed
@given(
    st.sampled_from(["continuum-spectrum", "lll-compare", "dynamics-defect"]),
    usually(
        st.floats(0.0, 20.0, exclude_min=True),
        st.sampled_from([math.nan, math.inf, 0.0, -1.0]),
    ),
    counts,
    counts,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1e308, -1e308]),
    ),
    st.booleans(),
)
def test_continuum_commands_keep_the_exit_code_contract(
    command, field, ncells, nlevels, amplitude, separate
):
    if field > 0 and math.isfinite(field) and ncells in ("1", "2", "3"):
        assume(field * int(ncells) ** 2 / math.pi <= 30)  # at most 30 flux quanta
    flags = {"B": repr(field), "ncells": ncells, "nlevels": nlevels,
             "amplitude": repr(amplitude)}
    if command == "dynamics-defect":
        flags["times"] = "0.5,1"
    argv = [command] + spelled(flags, separate)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        for row in table_rows(out.getvalue()):
            for column, text in row.items():
                if column != "cluster_gap" and text not in ("true", "false"):
                    assert math.isfinite(float(text)), (argv, column, text)


# six drawn values a run: rarer invalid ones leave most runs valid
tolerances = usually(
    st.floats(0.0, 10.0),
    st.sampled_from([-1.0, -1e-12, math.nan, math.inf]),
    one_in=10,
)
grids = usually(st.integers(1, 8).map(str), st.sampled_from(["0", "2.7"]), one_in=10)
flux_texts = usually(
    st.tuples(st.sampled_from(["", "-"]), fluxes(qmax=5)).map(
        lambda drawn: f"{drawn[0]}{drawn[1].p}/{drawn[1].q}"
    ),
    st.sampled_from(["2/4", "x"]),
    one_in=10,
)


@fixed
@given(
    st.sampled_from(["fiber-spectrum", "harper-spectrum", "peierls-check",
                     "gauge-check"]),
    flux_texts,
    grids,
    grids,
    tolerances,
    tolerances,
    st.booleans(),
)
def test_lattice_commands_keep_the_exit_code_contract(
    command, flux, grid, grid2, tol, gap_tol, separate
):
    flags = {
        "fiber-spectrum": {"flux": flux, "kgrid": grid, "kgrid2": grid2,
                           "gap-tol": gap_tol},
        "harper-spectrum": {"flux": flux, "kgrid": grid, "thetagrid": grid2,
                            "gap-tol": gap_tol, "tol": tol},
        "peierls-check": {"flux": flux, "kgrid": grid, "tol": tol},
        "gauge-check": {"B": flux, "L": grid, "kgrid": grid2, "gap-tol": gap_tol,
                        "tol": tol},
    }[command]
    argv = [command] + spelled(flags, separate)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if any(flags.get(key, 0.0) < 0 for key in ("tol", "gap-tol")):
        assert code == 2, argv


@fixed
@given(
    usually(
        st.floats(0.0, 10.0),
        st.sampled_from([-1.0, -1e-12, math.nan, math.inf, -math.inf, 1e308]),
    ),
    usually(st.floats(1e-3, 1.0), st.sampled_from([0.0, -1.0, math.nan]), one_in=10),
    st.integers(1, 40),
    tolerances,
    usually(st.sampled_from([3, 6]), st.integers(1, 5)),
    usually(st.sampled_from(["1/3", "-1/3", "0/1"]), st.just("2/4"), one_in=10),
    st.integers(1, 2),
    st.integers(1, 8),
    st.booleans(),
)
def test_disorder_command_keeps_the_exit_code_contract(
    strength, width, bins, gap_tol, side, flux, nseeds, kgrid, separate
):
    flags = {"W": strength, "width": width, "bins": bins, "gap-tol": gap_tol,
             "L": side, "flux": flux, "nseeds": nseeds, "kgrid": kgrid}
    argv = ["disorder-dos"] + spelled(flags, separate)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if not strength >= 0 or math.isinf(strength):
        assert code == 2, argv
