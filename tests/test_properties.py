"""Property tests: Hausdorff metric axioms, the interval normal form of
rows in any order, Chambers invariance and monotonicity, Chern numbers
against the TKNN Diophantine rule, the guiding-centre coset split of the
continuum operator and its exactly real blocks for potentials even in x,
the composition of plane-wave elements, the inversion halves of even
potentials, the Laguerre recurrence and the windowed erf of the DOS against
scipy, and the exit-code contract of the continuum, lattice and disorder
commands.

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
from dataclasses import replace
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fluxlab import (
    C2_DEVIATION_ULPS,
    FourierPotential,
    RationalFlux,
    band_intervals,
    chern_numbers,
    coset_count,
    coset_eigh,
    dos,
    exact_bands,
    guiding_bands,
    hausdorff,
    hofstadter_family,
    inversion_even,
    level_form_factor,
    sector_blocks,
    torus_basis,
)
from fluxlab.cli import main
from oracles import (
    coset_blocks,
    dense_eigh,
    dense_hamiltonian,
    erf_dos,
    math_erf,
    plane_wave_element,
    scipy_erf,
    scipy_level_form_factor,
    tknn_cherns,
)

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
def shuffled_unions(draw):
    """A drawn interval union, and the same union as its rows in any order
    with nested rows added inside some of them."""
    iv = draw(interval_unions())
    picks = draw(st.lists(st.integers(0, len(iv) - 1), max_size=6))
    t = draw(
        st.lists(st.floats(0.0, 1.0), min_size=2 * len(picks), max_size=2 * len(picks))
    )
    lo, hi = iv[picks, 0][:, None], iv[picks, 1][:, None]
    t = np.sort(np.reshape(t, (-1, 2)), axis=1)
    rows = np.concatenate((iv, np.clip(lo + t * (hi - lo), lo, hi)))
    return iv, rows[draw(st.permutations(range(len(rows))))]


@fixed
@given(shuffled_unions())
def test_band_intervals_normalizes_rows_in_any_order(drawn):
    iv, rows = drawn
    merged = band_intervals(rows, 0.0)
    assert np.all(merged[:, 0] <= merged[:, 1])
    assert np.all(merged[1:, 0] > merged[:-1, 1])
    assert np.array_equal(merged, iv)
    assert hausdorff(rows, merged) == 0.0


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
    w = np.linalg.eigvalsh(family.batch(k1, k2))
    moved = np.linalg.eigvalsh(family.batch(*CHAMBERS_MOVES[move](k1, k2, flux.q)))
    assert np.max(np.abs(w - moved)) < 1e-12
    bands = exact_bands(flux)
    assert np.all(w >= bands[:, 0] - 1e-12)
    assert np.all(w <= bands[:, 1] + 1e-12)


@fixed
@given(fluxes(), *[st.floats(0.0, 2.0 * np.pi)] * 4)
def test_sorted_fiber_eigenvalues_are_monotone_in_s(flux, a1, a2, b1, b2):
    # each sorted eigenvalue E_j is a monotone function of
    # s = cos(q k1) + cos(q k2); its direction is read from s = 2 (k = 0)
    # and s = -2 (k = (pi/q, pi/q))
    family, q = hofstadter_family(flux), flux.q
    up = np.sign(
        np.linalg.eigvalsh(family.batch(0.0, 0.0))
        - np.linalg.eigvalsh(family.batch(np.pi / q, np.pi / q))
    )
    assert np.all(up != 0)
    ds = np.cos(q * b1) + np.cos(q * b2) - np.cos(q * a1) - np.cos(q * a2)
    de = np.linalg.eigvalsh(family.batch(b1, b2)) - np.linalg.eigvalsh(
        family.batch(a1, a2)
    )
    assert np.all(up * np.sign(ds) * de >= -1e-12)


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
    h = dense_hamiltonian(basis, potential)
    assert not np.any(h[across])
    # the guiding bands put the same entries at (a, j), (b, j + o)
    rebuilt = np.zeros_like(h).reshape(n_levels, n_flux, n_levels, n_flux)
    j = np.arange(n_flux)
    for o, band in guiding_bands(basis, potential).items():
        rebuilt[:, j, :, (j + o) % n_flux] = band.transpose(2, 0, 1)
    assert np.array_equal(rebuilt.reshape(h.shape), h)
    blocks = coset_blocks(basis, potential)
    assert blocks.shape == (g, basis.dim // g, basis.dim // g)
    for c in range(g):
        mine = np.flatnonzero(coset == c)
        assert np.array_equal(blocks[c], h[np.ix_(mine, mine)]), c
    assert np.max(np.abs(coset_eigh(basis, potential) - dense_eigh(h))) < 1e-12


@fixed
@given(torus_potentials(), st.integers(1, 24), st.integers(1, 3))
def test_one_level_blocks_are_the_level_zero_blocks(drawn, n_flux, n_levels):
    # the lowest-level compression P H P is the operator on one level: in the
    # level-major layout its coset blocks are the level-0 corners, exactly
    n_cells, potential = drawn
    basis = torus_basis(math.pi * n_flux / n_cells**2, n_levels, n_cells)
    s = n_flux // coset_count(basis, potential)
    one_level = coset_blocks(replace(basis, n_levels=1), potential)
    assert np.array_equal(one_level, coset_blocks(basis, potential)[:, :s, :s])
    one_level, full = (guiding_bands(b, potential) for b in (replace(basis, n_levels=1), basis))
    assert one_level.keys() == full.keys()
    for o, band in one_level.items():
        assert np.array_equal(band, full[o][:1, :1])


@fixed
@given(st.integers(1, 2), st.integers(0, 8), st.tuples(*[st.integers(-2, 2)] * 4))
def test_plane_wave_elements_compose(n_cells, extra_flux, steps):
    # plane waves are multiplication operators, so E(K) E(K') = E(K + K')
    # for any K, K' on the torus's reciprocal grid (multiples of 1/n_cells,
    # here with components in [-1, 1]): the Weyl phase of the guiding
    # translations pairs with the form-factor phase. Level truncation breaks
    # the product near the top of the ladder, so it is checked on the lowest
    # 3 of 20 levels, with at least 8 n_cells^2 flux quanta keeping
    # |K|^2 / (2b) below 0.8
    n_flux = 8 * n_cells**2 + extra_flux
    basis = torus_basis(math.pi * n_flux / n_cells**2, 20, n_cells)
    assert basis.n_flux == n_flux
    a, b, c, d = (max(-n_cells, min(n_cells, x)) / n_cells for x in steps)
    low = 3 * n_flux
    product = (plane_wave_element(basis, (a, b))[:low]
               @ plane_wave_element(basis, (c, d))[:, :low])
    whole = plane_wave_element(basis, (a + c, b + d))[:low, :low]
    assert np.max(np.abs(product - whole)) < 1e-12


@st.composite
def inversion_even_potentials(draw):
    """(n_cells, real potential with c(-n, -m) == c(n, m)): each drawn
    (n, m, c) with real c comes with (-n, -m, c)."""
    n_cells = draw(st.integers(1, 4))
    steps = st.integers(-2 * n_cells, 2 * n_cells)
    coefficients = st.floats(-2.0, 2.0)
    harmonics = []
    for a, b, c in draw(st.lists(st.tuples(steps, steps, coefficients), max_size=3)):
        harmonics += [(a / n_cells, b / n_cells, c), (-a / n_cells, -b / n_cells, c)]
    return n_cells, FourierPotential(harmonics)


@fixed
@given(inversion_even_potentials(), st.integers(1, 24), st.integers(1, 4))
def test_inversion_halves_keep_the_spectrum(drawn, n_flux, n_levels):
    # an even potential splits every self-paired coset into two halves whose
    # sizes and ranks add up to the coset's, within the C2 bound; the orbit
    # representatives' sectors, once per orbit member, add up to the
    # operator within the shift bound; and the spectrum and the one-level
    # spectrum from the corners are the unsplit ones to roundoff
    n_cells, potential = drawn
    basis = torus_basis(math.pi * n_flux / n_cells**2, n_levels, n_cells)
    assert inversion_even(potential)
    stacks, _, deviation, shift = sector_blocks(basis, potential)
    sectors = [s for group, *_ in stacks for s in group]
    copies = stacks[0][2]
    assert copies * sum(s.dim for s in sectors) == basis.dim
    assert copies * sum(s.rank for s in sectors) == n_flux
    h = dense_hamiltonian(basis, potential)
    scale = np.max(np.abs(h))
    assert deviation <= C2_DEVIATION_ULPS * np.finfo(float).eps * scale
    assert shift <= C2_DEVIATION_ULPS * np.finfo(float).eps * scale
    want = dense_eigh(h)
    assert np.all(np.abs(coset_eigh(basis, potential) - want) <= 1e-12 * (1 + scale))
    one_level = np.sort(np.concatenate([
        np.tile(np.linalg.eigvalsh(blocks[:, :r, :r]).ravel(), n)
        for group, blocks, n in stacks for r in [group[0].rank] if r]))
    want_one = dense_eigh(h[:n_flux, :n_flux])
    assert np.all(np.abs(one_level - want_one) <= 1e-12 * (1 + scale))


@st.composite
def even_potentials(draw):
    """(n_cells, real potential even in x, c(n, m) = c(-n, m)): each drawn
    (n, m, c) comes with (-n, m, c), (-n, -m, conj(c)) and (n, -m, conj(c)),
    and the coefficients of equal (n, m) are added."""
    n_cells = draw(st.integers(1, 4))
    steps = st.integers(-2 * n_cells, 2 * n_cells)
    coefficients = st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    table = {}
    for a, b, c in draw(st.lists(st.tuples(steps, steps, coefficients), max_size=4)):
        for key, value in (
            ((a, b), c), ((-a, b), c), ((-a, -b), c.conjugate()), ((a, -b), c.conjugate())
        ):
            table[key] = table.get(key, 0) + value
    return n_cells, FourierPotential(
        [(a / n_cells, b / n_cells, c) for (a, b), c in table.items()]
    )


@fixed
@given(even_potentials(), st.booleans(), st.integers(1, 24), st.integers(1, 3))
def test_potentials_even_in_x_give_exactly_real_blocks(drawn, odd, n_flux, n_levels):
    # complex conjugation with x -> -x is a symmetry exactly when the
    # potential is even in x, and it makes every coset block real to the
    # last bit, so coset_eigh solves them real; adding sin(2 pi x) breaks it
    n_cells, potential = drawn
    # on one level, sin(2 pi x) projects to zero when its guiding shifts
    # +-n_cells coincide mod n_flux
    assume(not odd or n_levels > 1 or 2 * n_cells % n_flux)
    if odd:
        potential = FourierPotential(potential.harmonics + ((1, 0, -0.5j), (-1, 0, 0.5j)))
    basis = torus_basis(math.pi * n_flux / n_cells**2, n_levels, n_cells)
    assert basis.n_flux == n_flux
    values = coset_eigh(basis, potential)
    blocks = coset_blocks(basis, potential)
    assert bool(np.any(blocks.imag)) == odd
    assert blocks.dtype == (np.complex128 if odd else np.float64)
    stacks, *_ = sector_blocks(basis, potential)
    assert {b.dtype for _, b, _ in stacks} == {blocks.dtype}
    want = dense_eigh(dense_hamiltonian(basis, potential))
    assert np.all(np.abs(values - want) <= 1e-10 + 1e-10 * np.abs(want))


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
    if code == 4 and out.getvalue():
        # an unseparated row has a measured gap; a nan one exits 3. An
        # infeasible intertwiner exits 4 with no table.
        for row in table_rows(out.getvalue()):
            assert not math.isnan(float(row.get("cluster_gap", 0.0))), argv


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
        "fiber-spectrum": {"flux": flux, "kgrid": grid, "kgrid2": grid2},
        "harper-spectrum": {"flux": flux, "kgrid": grid, "thetagrid": grid2},
        "peierls-check": {"flux": flux, "kgrid": grid, "tol": tol},
        "gauge-check": {"B": flux, "L": grid, "gap-tol": gap_tol, "tol": tol},
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


@fixed
@given(
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.floats(0.5, 50.0),
    st.integers(1, 40),
)
def test_level_form_factor_matches_scipy_laguerre(kx, ky, b, n_levels):
    # entries of a unitary's matrix block: every one has modulus <= 1
    got = level_form_factor(kx, ky, b, n_levels)
    want = scipy_level_form_factor(kx, ky, b, n_levels)
    assert np.max(np.abs(got - want)) <= 1e-13


@fixed
@given(
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30),
    st.floats(1e-3, 2.0),
    st.integers(1, 60),
    st.floats(-8.0, 8.0),
    st.floats(1e-3, 16.0),
)
def test_windowed_erf_dos_matches_full_grid_erf(values, width, bins, lo, span):
    bounds = (lo, lo + span)
    edges, want, inside = erf_dos(values, math_erf, width, bins, bounds)
    if want is None:
        with pytest.raises(ValueError, match="fell outside the range"):
            dos(values, width=width, bins=bins, bounds=bounds)
        return
    got_edges, got = dos(values, width=width, bins=bins, bounds=bounds)
    assert np.array_equal(got_edges, edges)
    # bit for bit: math.erf is exactly +-1 past the saturation cut
    assert np.array_equal(got, want)
    _, ref, _ = erf_dos(values, scipy_erf, width, bins, bounds)
    # compared as bin masses before the normalization by the in-range weight:
    # each is a difference of erf values averaged over the sample
    mass_error = np.max(np.abs(got - ref)) * (edges[1] - edges[0]) * inside
    assert mass_error <= 1e-15
