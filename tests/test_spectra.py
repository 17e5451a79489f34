"""Tests for eigenvalue collection, band intervals, distances, DOS, Chern numbers."""

import math

import numpy as np
import pytest

from math import gcd

from fluxlab import (
    BlochFiberFamily,
    NEAREST_NEIGHBOR,
    DegenerateBandsError,
    NumericalCheckError,
    RationalFlux,
    band_intervals,
    band_quantiles,
    check_hermitian,
    chern_numbers,
    dos,
    eigenvalues_hermitian,
    exact_bands,
    fiber_eigenvalues,
    hausdorff,
    hofstadter_family,
    peierls_quantize,
    spectra,
    spectrum_union,
)

from fluxlab.cli import main
from oracles import (
    corner_bands,
    grid_band_quantiles,
    grid_fiber_eigenvalues,
    hermitian_deviation,
    per_flux_band_quantiles,
)


def nearest_point_distance(a, b):
    """Directed max-min distance between sorted 1D point sets, vectorized."""
    j = np.clip(np.searchsorted(b, a), 1, len(b) - 1)
    return float(np.max(np.minimum(np.abs(a - b[j - 1]), np.abs(a - b[j]))))


def test_eigenvalues_examples():
    assert np.allclose(eigenvalues_hermitian(np.eye(3)), [1, 1, 1], atol=1e-14)
    w = eigenvalues_hermitian(np.array([[2.0, 2.0], [2.0, -2.0]]))
    r = 2.0 * np.sqrt(2.0)
    assert np.allclose(w, [-r, r], atol=1e-12)
    assert np.allclose(
        eigenvalues_hermitian(np.diag([3.0, 1.0, 2.0])), [1, 2, 3], atol=1e-14
    )


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NumericalCheckError):
        eigenvalues_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_hermitian(np.zeros((2, 3)))


def test_nan_matrix_is_not_hermitian():
    m = np.array([[1.0, np.nan], [np.nan, 2.0]])
    with pytest.raises(NumericalCheckError):
        check_hermitian(m)
    with pytest.raises(NumericalCheckError):
        eigenvalues_hermitian(m)


def test_blocked_hermiticity_matches_whole_matrix_oracle():
    rows = spectra._HERMITIAN_ROWS
    rng = np.random.default_rng(5)
    for n in (1, rows - 1, rows + 1, 2 * rows + 2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a + a.conj().T + 1e-14 * (1 + 1j) * rng.normal(size=(n, n))
        assert check_hermitian(m) == hermitian_deviation(m) > 0
        real = m.real.copy()
        assert check_hermitian(real) == hermitian_deviation(real)
    assert check_hermitian(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, 1e-6])
def test_hermiticity_fails_in_the_last_partial_row_block(bad):
    # rows 2 * _HERMITIAN_ROWS and the one after form the last block alone
    n = 2 * spectra._HERMITIAN_ROWS + 2
    m = np.eye(n, dtype=complex)
    m[n - 2, n - 1] = bad
    with pytest.raises(NumericalCheckError):
        check_hermitian(m)
    assert not hermitian_deviation(m) <= 1e-12


def test_band_intervals_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="empty spectrum sample"):
        band_intervals(np.array([]), 0.1)


def test_band_intervals_small_example():
    bands = band_intervals(np.array([0.0, 0.001, 5.0]), gap_tol=0.1)
    assert np.array_equal(bands, [[0.0, 0.001], [5.0, 5.0]])


def test_band_intervals_validation():
    with pytest.raises(ValueError):
        band_intervals(np.array([0.0, 1.0]), gap_tol=-0.5)


def test_band_intervals_merges_a_band_set():
    bands = np.array([[0.0, 1.0], [1.25, 2.0], [5.0, 6.0]])
    assert np.array_equal(band_intervals(bands, 0.5), [[0.0, 2.0], [5.0, 6.0]])
    assert np.array_equal(band_intervals(bands, 0.25), [[0.0, 2.0], [5.0, 6.0]])
    assert np.array_equal(band_intervals(bands, 0.0), bands)
    # a sample is the band set of its sorted values as zero-width rows
    sample = np.array([5.0, 0.0, 1.0])
    points = np.column_stack((np.sort(sample), np.sort(sample)))
    assert np.array_equal(band_intervals(sample, 1.0), band_intervals(points, 1.0))
    # rows in any order, nested ones too, as hausdorff takes them
    assert np.array_equal(band_intervals([[0.0, 10.0], [1.0, 2.0]], 0), [[0.0, 10.0]])
    assert np.array_equal(
        band_intervals([[2.0, 3.0], [0.0, 1.0]], 0), [[0.0, 1.0], [2.0, 3.0]]
    )


def test_band_intervals_keeps_the_gaps_after_a_nan_edge():
    # a running max of the upper edges would be NaN from the first row on
    # and merge every later row; the NaN edge itself is not hidden
    bands = band_intervals(np.array([[0.0, np.nan], [1.0, 2.0], [5.0, 6.0]]), 0.5)
    assert len(bands) == 2
    assert np.isnan(bands[0, 1])
    assert np.array_equal(bands[1], [5.0, 6.0])


def test_band_counts_for_standard_fluxes():
    third = spectrum_union(hofstadter_family(RationalFlux(1, 3)), 100)
    assert len(band_intervals(third, 0.05)) == 3
    # the half-flux bands touch at E = 0 through a conical point, so the
    # sample needs a dense grid there before the merge sees one interval
    half = spectrum_union(hofstadter_family(RationalFlux(1, 2)), 256)
    assert len(band_intervals(half, 0.05)) == 1


def test_hausdorff_examples():
    a = np.array([[0.0, 1.0]])
    assert hausdorff(a, a) == 0.0
    b = np.array([[0.1, 1.1]])
    assert abs(hausdorff(a, b) - 0.1) < 1e-14
    c = np.array([[-1.0, 0.5], [0.6, 1.0]])
    full = np.array([[-1.0, 1.0]])
    assert abs(hausdorff(full, c) - 0.05) < 1e-14


def test_hausdorff_is_nan_in_either_order():
    # the builtin max of (0.0, nan) is 0.0 while max(nan, 0.0) is nan
    assert np.isnan(hausdorff([0.0, np.nan], [0.0, 1.0]))
    assert np.isnan(hausdorff([0.0, 1.0], [0.0, np.nan]))


def test_hausdorff_accepts_raw_values():
    # point sets: the midpoint is 0.5 away from both ends
    assert abs(hausdorff([0.0, 1.0], [0.0, 1.0, 0.5]) - 0.5) < 1e-14
    # interval against points: worst spot is the covered gap midpoint 0.25
    assert abs(hausdorff(np.array([[0.0, 1.0]]), [0.0, 0.5, 1.0]) - 0.25) < 1e-14
    with pytest.raises(ValueError):
        hausdorff([], [0.0])


def test_hausdorff_does_not_sort_a_sorted_sample(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.normal(size=500)
    b = random_interval_union(rng)
    sort = np.sort

    def sort_unsorted_only(x, *args, **kwargs):
        if np.all(np.diff(np.ravel(x)) >= 0):
            raise AssertionError("a sorted sample was sorted again")
        return sort(x, *args, **kwargs)

    monkeypatch.setattr(np, "sort", sort_unsorted_only)
    # the unsorted sample is sorted first and gives the same bits
    assert hausdorff(sort(a), b) == hausdorff(a, b)
    assert hausdorff(b, sort(a)) == hausdorff(b, a)
    assert np.array_equal(band_intervals(sort(a), 0.1), band_intervals(a, 0.1))
    for got, want in zip(dos(sort(a), 0.2, 50, (-4, 4)), dos(a, 0.2, 50, (-4, 4))):
        assert np.array_equal(got, want)


def random_interval_union(rng):
    pts = np.sort(rng.uniform(-3, 3, size=rng.integers(2, 7) * 2))
    return np.array([(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)])


def test_hausdorff_is_a_metric():
    rng = np.random.default_rng(71)
    for _ in range(50):
        a = random_interval_union(rng)
        b = random_interval_union(rng)
        c = random_interval_union(rng)
        dab = hausdorff(a, b)
        assert dab >= 0.0
        assert abs(dab - hausdorff(b, a)) < 1e-14
        assert hausdorff(a, a) == 0.0
        if not np.array_equal(a, b):
            assert dab > 0.0
        assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


def brute_directed(a, b, samples=2001):
    """sup over x in A of dist(x, B) for (n, 2) interval arrays, from a dense
    sampling of every interval of A; low by at most half a sampling step."""
    worst = 0.0
    for lo, hi in a:
        x = np.linspace(lo, hi, samples)[:, None]
        gaps = np.maximum(np.maximum(b[:, 0] - x, x - b[:, 1]), 0.0)
        worst = max(worst, float(gaps.min(axis=1).max()))
    return worst


def test_hausdorff_matches_brute_force_on_points_and_intervals():
    rng = np.random.default_rng(5)
    for _ in range(60):
        sets = []
        for _side in range(2):
            n = int(rng.integers(1, 8))
            lo = rng.uniform(-3, 3, size=n)
            length = rng.uniform(0, 1.5, size=n)
            length[rng.random(n) < 0.5] = 0.0  # points among the intervals
            sets.append(np.column_stack((lo, lo + length)))
        a, b = sets
        longest = max(np.max(a[:, 1] - a[:, 0]), np.max(b[:, 1] - b[:, 0]))
        slack = 0.5 * longest / 2000 + 1e-12  # half the oracle's sampling step
        oracle = max(brute_directed(a, b), brute_directed(b, a))
        got = hausdorff(a, b)
        assert oracle - 1e-12 <= got <= oracle + slack
        # a pure point set gives the same distance as a flat value array
        # or zero-length intervals
        points = a[:, 0]
        assert hausdorff(points, b) == hausdorff(np.column_stack((points, points)), b)


def test_spectrum_union_refines_monotonically():
    fam = hofstadter_family(RationalFlux(1, 3))
    s16 = spectrum_union(fam, 16)
    s32 = spectrum_union(fam, 32)
    s64 = spectrum_union(fam, 64)
    d_coarse = max(nearest_point_distance(s16, s32),
                   nearest_point_distance(s32, s16))
    d_fine = max(nearest_point_distance(s32, s64),
                 nearest_point_distance(s64, s32))
    assert d_fine <= d_coarse
    # coarse samples live inside a small neighborhood of the finer ones
    assert nearest_point_distance(s16, s64) < 0.2


def test_spectrum_union_single_point_grid():
    fam = hofstadter_family(RationalFlux(2, 5))
    s = spectrum_union(fam, 1)
    assert s.size == 5
    assert np.allclose(s, np.linalg.eigvalsh(fam.batch(0.0, 0.0)), atol=1e-12)


def mixed_family(flux):
    """A Peierls family with a mixed (1, 1) harmonic: no Chambers relation."""
    disp = NEAREST_NEIGHBOR + ((1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j))
    return peierls_quantize(disp, flux)


def test_spectrum_union_chunking_consistent(monkeypatch):
    fam = mixed_family(RationalFlux(1, 3))
    a = spectrum_union(fam, 24)
    calls = []
    batch = BlochFiberFamily.batch

    def counted(self, k1, k2):
        calls.append(len(k1))
        return batch(self, k1, k2)

    monkeypatch.setattr(BlochFiberFamily, "batch", counted)
    # one grid row of 24 fibers of dimension 3 holds 216 entries: 2 rows a chunk
    monkeypatch.setattr(spectra, "_CHUNK_ENTRIES", 500)
    b = spectrum_union(fam, 24)
    assert calls == [2] * 12
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        spectrum_union(fam, 0)


def coprime_fluxes(qmax):
    return [
        RationalFlux(p, q)
        for q in range(1, qmax + 1)
        for p in range(-q, 2 * q + 1)
        if gcd(p, q) == 1
    ]


def test_chambers_dedup_matches_full_grid():
    for flux in coprime_fluxes(20):
        fam = hofstadter_family(flux)
        assert fam.chambers
        got = fiber_eigenvalues(fam, 24)
        assert np.max(np.abs(got - grid_fiber_eigenvalues(fam, 24, 24))) < 1e-12


@pytest.mark.parametrize(
    "n1, n2",
    # one- and two-point axes, rectangular grids, grids sharing a factor
    # with q, and the 64-point butterfly grid
    [(1, 1), (2, 2), (1, 2), (2, 1), (2, 7), (9, 12), (12, 9), (10, 25), (64, 64),
     (24, 64)],
)
def test_chambers_dedup_matches_full_grid_on_any_grid(n1, n2):
    sample = coprime_fluxes(20)[:: 3 if n1 * n2 < 1000 else 19]
    for flux in sample + [RationalFlux(1, 6), RationalFlux(5, 12), RationalFlux(3, 16)]:
        fam = hofstadter_family(flux)
        got = fiber_eigenvalues(fam, n1, n2)
        assert got.shape == (n1, n2, flux.q)
        assert np.max(np.abs(got - grid_fiber_eigenvalues(fam, n1, n2))) < 1e-12


@pytest.mark.parametrize(
    "disp",
    [
        NEAREST_NEIGHBOR,
        [(1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j), (1, 0, 1.0), (-1, 0, 1.0)],
    ],
)
def test_peierls_families_solve_the_whole_grid(disp):
    # even the nearest-neighbour dispersion, whose spectrum obeys the
    # Chambers relation, keeps the plain grid path: it is never inferred
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 8)):
        fam = peierls_quantize(disp, flux)
        assert not fam.chambers
        for n1, n2 in ((24, 24), (9, 12)):
            assert np.array_equal(
                fiber_eigenvalues(fam, n1, n2), grid_fiber_eigenvalues(fam, n1, n2)
            )


@pytest.mark.parametrize("n1, n2", [(64, 64), (64, 24)])
def test_chambers_dedup_respects_the_chunk_bound(n1, n2, monkeypatch):
    fam = hofstadter_family(RationalFlux(3, 7))
    a = fiber_eigenvalues(fam, n1, n2)
    calls = []
    batch = BlochFiberFamily.batch

    def counted(self, k1, k2):
        h = batch(self, k1, k2)
        calls.append(h.size)
        return h

    monkeypatch.setattr(BlochFiberFamily, "batch", counted)
    # 33 (or 13) representatives per axis of 7 x 7 fibers: one representative
    # row holds 1,617 (or 637) entries, so a chunk of 2,000 entries holds
    # one row (or three)
    monkeypatch.setattr(spectra, "_CHUNK_ENTRIES", 2000)
    b = fiber_eigenvalues(fam, n1, n2)
    assert len(calls) > 1
    assert max(calls) <= 2000
    assert np.array_equal(a, b)


def test_butterfly_fluxes_solve_one_fiber_per_chambers_class(monkeypatch):
    fluxes = [RationalFlux(0, 1), RationalFlux(1, 1)] + [
        RationalFlux(p, q) for q in range(2, 21) for p in range(1, q) if gcd(p, q) == 1
    ]
    assert len(fluxes) == 129
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for flux in fluxes:
        fiber_eigenvalues(hofstadter_family(flux), 64)
    # the full 64 x 64 grids hold 528,384 fibers
    assert sum(solved) == 50_769


def reduced_numerators(q):
    """Every p = 0..q with p/q reduced: 0 and 1 for q = 1."""
    return [p for p in range(q + 1) if gcd(p, q) == 1]


QUANTILE_SETS = [[0.25, 0.5, 0.75], [0.0, 0.1, 0.37, 1.0]]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("quantiles", QUANTILE_SETS)
def test_band_quantiles_match_the_full_grid(n, quantiles):
    # odd and even grids, even q (the central bands touch) and gcd(q, n) > 1
    for q in range(1, 9):
        nums = reduced_numerators(q)
        lo, hi, quants, solved, bands = band_quantiles(q, nums, n, quantiles)
        for i, p in enumerate(nums):
            want = grid_band_quantiles(RationalFlux(p, q), n, quantiles)
            for got, w in zip((lo[i], hi[i], quants[i]), want):
                assert got.shape == w.shape
                assert np.max(np.abs(got - w)) < 1e-12
        # ranks 0 and N - 1, and two ranks per quantile, each with its mirror
        assert solved.shape[0] == len(nums) and solved.shape[2] == q
        assert solved.shape[1] <= 2 + 4 * len(quantiles)
        assert bands.shape == (len(nums), q, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 16, 64, 65])
@pytest.mark.parametrize("quantiles", QUANTILE_SETS)
def test_band_quantiles_is_bit_identical_to_the_per_flux_oracle(n, quantiles):
    # one rank set and one eigensolve per denominator changes no bit of any
    # flux's result, nor of its corner bands
    for q in range(1, 21):
        nums = reduced_numerators(q)
        got = band_quantiles(q, nums, n, quantiles)
        for i, p in enumerate(nums):
            flux = RationalFlux(p, q)
            bands = exact_bands(flux)
            want = per_flux_band_quantiles(flux, n, quantiles) + (bands,)
            for g, w in zip(got, want):
                assert g[i].shape == w.shape
                assert np.array_equal(g[i].view(np.uint64), w.view(np.uint64)), (flux, n)
            old = corner_bands(flux)
            assert np.array_equal(bands.view(np.uint64), old.view(np.uint64)), flux


def test_butterfly_solves_a_few_fibers_per_flux(monkeypatch):
    calls = []  # (kind, fibers) in call order
    batch, eigvalsh = BlochFiberFamily.batch, np.linalg.eigvalsh

    def counted_batch(self, k1, k2):
        h = batch(self, k1, k2)
        calls.append(("batch", math.prod(h.shape[:-2])))
        return h

    def counted(a, *args, **kwargs):
        calls.append(("eigvalsh", int(np.prod(np.shape(a)[:-2]))))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(BlochFiberFamily, "batch", counted_batch)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["butterfly", "--qmax", "20", "--kgrid", "64"]) == 0
    built = [count for kind, count in calls if kind == "batch"]
    solved = [count for kind, count in calls if kind == "eigvalsh"]
    # one eigensolve per denominator q = 1..20 and one batch per flux: at
    # most 2 x 3 + 2 = 8 fibers for the three quartiles, whose ranks are
    # their own mirrors, and the two exact_bands corners; the grid holds
    # 4,096 fibers per flux
    assert len(solved) == 20 and len(built) == 129
    assert max(built) <= 10
    assert sum(built) == sum(solved) == 1_290
    # every built fiber is solved, by the next eigensolve
    pending = 0
    for kind, count in calls:
        if kind == "batch":
            pending += count
        else:
            assert count == pending
            pending = 0
    assert pending == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
def test_band_quantiles_solves_fiber_eigenvalues_at_its_grid_points(n, monkeypatch):
    # band_quantiles builds a paired stack of fibers, fiber_eigenvalues a
    # product grid; each solved row must still be fiber_eigenvalues' row at
    # the grid point its fiber was built at, bit for bit
    built = []
    batch = BlochFiberFamily.batch

    def recorded(self, k1, k2):
        built.append((k1, k2))
        return batch(self, k1, k2)

    for q in range(1, 13):
        nums = reduced_numerators(q)
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(BlochFiberFamily, "batch", recorded)
            solved = band_quantiles(q, nums, n, [0.25, 0.5, 0.75])[3]
        assert len(built) == len(nums)
        for p, fibers, (k1, k2) in zip(nums, solved, built):
            table = fiber_eigenvalues(hofstadter_family(RationalFlux(p, q)), n)
            # the momenta before the two band corners are grid points 2 pi j / n
            j1, j2 = (
                np.rint(np.asarray(k)[: len(fibers)] * n / (2.0 * np.pi)).astype(int)
                for k in (k1, k2)
            )
            assert np.array_equal(fibers, table[j1, j2]), (p, q, n)


def test_fiber_eigenvalues_grid_layout():
    fam = hofstadter_family(RationalFlux(2, 5))
    w = fiber_eigenvalues(fam, 4, 6)
    assert w.shape == (4, 6, 5)
    k1, k2 = 2.0 * np.pi * 3 / 4, 2.0 * np.pi * 5 / 6
    assert np.allclose(w[3, 5], np.linalg.eigvalsh(fam.batch(k1, k2)), atol=1e-12)


def test_exact_bands_are_the_grid_band_extrema():
    # a grid of n points per axis with 2q | n holds both k = (0, 0) and
    # k = (pi/q, pi/q), where the Chambers relation puts the band edges
    for q in range(1, 9):
        n = 2 * q * max(1, 8 // q)
        for p in range(q):
            if np.gcd(p, q) != 1:
                continue
            flux = RationalFlux(p, q)
            w = fiber_eigenvalues(hofstadter_family(flux), n).reshape(-1, q)
            bands = exact_bands(flux)
            assert bands.shape == (q, 2)
            assert np.max(np.abs(bands[:, 0] - w.min(axis=0))) < 1e-12
            assert np.max(np.abs(bands[:, 1] - w.max(axis=0))) < 1e-12


def test_dos_integral_and_symmetry():
    edges, density = dos(np.array([0.0]), width=0.1, bins=400, bounds=(-0.8, 0.8))
    bin_width = float(edges[1] - edges[0])
    assert abs(float(np.sum(density) * bin_width) - 1.0) < 1e-9
    peak = 0.5 * (edges[:-1] + edges[1:])[np.argmax(density)]
    assert abs(peak) < bin_width

    sample = spectrum_union(hofstadter_family(RationalFlux(0, 1)), 64)
    _, dd = dos(sample, width=0.05, bins=200, bounds=(-4.4, 4.4))
    assert np.max(np.abs(dd - dd[::-1])) < 1e-6 * np.max(dd)


def test_dos_bounds_and_validation():
    edges, _ = dos(np.array([0.0, 1.0]), width=0.05, bins=10, bounds=(-1.0, 2.0))
    assert edges[0] == -1.0 and edges[-1] == 2.0
    with pytest.raises(ValueError):
        dos(np.array([0.0]), width=0.0, bins=10, bounds=(-1.0, 1.0))
    with pytest.raises(ValueError):
        dos(np.array([0.0]), width=0.1, bins=0, bounds=(-1.0, 1.0))
    with pytest.raises(ValueError, match="empty energy range"):
        dos(np.array([0.0]), width=0.1, bins=10, bounds=(1.0, 1.0))
    with pytest.raises(ValueError, match="all spectral weight fell outside"):
        dos(np.array([0.0]), width=0.01, bins=50, bounds=(5.0, 6.0))


def test_erf_is_exactly_one_at_the_saturation_cut():
    # dos takes erf(z) = sign(z) for |z| >= the cut without calling math.erf,
    # which is exact only if erf has rounded to +-1.0 there (monotone beyond)
    cut = spectra._ERF_SATURATION
    assert math.erf(cut) == 1.0 and math.erf(-cut) == -1.0


def test_dos_of_a_nan_value_is_nan():
    # a NaN eigenvalue must not saturate to erf = -1 and drop out of the mass
    _, density = dos(np.array([0.0, np.nan]), width=0.1, bins=20, bounds=(-1.0, 1.0))
    assert np.all(np.isnan(density))


def test_chern_numbers_known_values():
    assert chern_numbers(hofstadter_family(RationalFlux(1, 3)), grid=30) == [1, -2, 1]
    # stability under grid refinement
    assert chern_numbers(hofstadter_family(RationalFlux(1, 3)), grid=60) == [1, -2, 1]
    c = chern_numbers(hofstadter_family(RationalFlux(2, 5)), grid=30)
    assert c == [-2, 3, -2, 3, -2]
    assert sum(c) == 0


def test_chern_degenerate_bands_rejected():
    # the half-flux bands touch at (pi/2, pi/2), so the grid must be a
    # multiple of 4 to sample the crossing exactly
    with pytest.raises(DegenerateBandsError) as err:
        chern_numbers(hofstadter_family(RationalFlux(1, 2)), grid=32)
    assert "k =" in str(err.value)
    k1, k2 = err.value.k_point
    half_pi = 0.5 * np.pi
    assert min(abs(k1 - half_pi), abs(k1 - 3 * half_pi)) < 1e-6
    assert min(abs(k2 - half_pi), abs(k2 - 3 * half_pi)) < 1e-6
    with pytest.raises(ValueError):
        chern_numbers(hofstadter_family(RationalFlux(1, 3)), grid=1)
