"""Tests for eigenvalue collection, band intervals, distances, DOS, Chern numbers."""

import numpy as np
import pytest

from math import gcd

from fluxlab import (
    BlochFiberFamily,
    DegenerateBandsError,
    FourierDispersion,
    NumericalCheckError,
    RationalFlux,
    band_intervals,
    check_hermitian,
    chern_numbers,
    default_gap_tol,
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

from oracles import grid_fiber_eigenvalues


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


def test_band_intervals_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="empty spectrum sample"):
        band_intervals(np.array([]), 0.1)


def test_band_intervals_small_example():
    bands = band_intervals(np.array([0.0, 0.001, 5.0]), gap_tol=0.1)
    assert np.array_equal(bands, [[0.0, 0.001], [5.0, 5.0]])


def test_band_intervals_validation():
    with pytest.raises(ValueError):
        band_intervals(np.array([0.0, 1.0]), gap_tol=-0.5)


def test_band_counts_for_standard_fluxes():
    third = spectrum_union(hofstadter_family(RationalFlux(1, 3)), 100)
    assert len(band_intervals(third, 0.05)) == 3
    # the half-flux bands touch at E = 0 through a conical point, so the
    # sample needs a dense grid there before the merge sees one interval
    half = spectrum_union(hofstadter_family(RationalFlux(1, 2)), 256)
    assert len(band_intervals(half, 0.05)) == 1


def test_default_gap_tol_ignores_duplicates():
    vals = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    tol = default_gap_tol(vals)
    assert abs(tol - 10.0) < 1e-9  # median spacing of distinct values is 1


def test_hausdorff_examples():
    a = np.array([[0.0, 1.0]])
    assert hausdorff(a, a) == 0.0
    b = np.array([[0.1, 1.1]])
    assert abs(hausdorff(a, b) - 0.1) < 1e-14
    c = np.array([[-1.0, 0.5], [0.6, 1.0]])
    full = np.array([[-1.0, 1.0]])
    assert abs(hausdorff(full, c) - 0.05) < 1e-14


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
    assert np.allclose(s, np.linalg.eigvalsh(fam.matrix(0.0, 0.0)), atol=1e-12)


def mixed_family(flux):
    """A Peierls family with a mixed (1, 1) harmonic: no Chambers relation."""
    disp = FourierDispersion(
        FourierDispersion.nearest_neighbor().harmonics
        + ((1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j))
    )
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
        FourierDispersion.nearest_neighbor(),
        FourierDispersion([(1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j), (1, 0, 1.0),
                           (-1, 0, 1.0)]),
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
        calls.append(len(k1) * len(k2) * self.dim**2)
        return batch(self, k1, k2)

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


def test_fiber_eigenvalues_grid_layout():
    fam = hofstadter_family(RationalFlux(2, 5))
    w = fiber_eigenvalues(fam, 4, 6)
    assert w.shape == (4, 6, 5)
    k1, k2 = 2.0 * np.pi * 3 / 4, 2.0 * np.pi * 5 / 6
    assert np.allclose(w[3, 5], np.linalg.eigvalsh(fam.matrix(k1, k2)), atol=1e-12)


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
    h = dos(np.array([0.0]), width=0.1, bins=400)
    bin_width = float(h.edges[1] - h.edges[0])
    assert abs(float(np.sum(h.density) * bin_width) - 1.0) < 1e-9
    peak = h.centers[np.argmax(h.density)]
    assert abs(peak) < bin_width

    sample = spectrum_union(hofstadter_family(RationalFlux(0, 1)), 64)
    hh = dos(sample, width=0.05, bins=200)
    assert np.max(np.abs(hh.density - hh.density[::-1])) < 1e-6 * np.max(hh.density)


def test_dos_bounds_and_validation():
    h = dos(np.array([0.0, 1.0]), width=0.05, bins=10, bounds=(-1.0, 2.0))
    assert h.edges[0] == -1.0 and h.edges[-1] == 2.0
    with pytest.raises(ValueError):
        dos(np.array([0.0]), width=0.0)
    with pytest.raises(ValueError):
        dos(np.array([0.0]), width=0.1, bins=0)
    with pytest.raises(ValueError, match="all spectral weight fell outside"):
        dos(np.array([0.0]), width=0.01, bins=50, bounds=(5.0, 6.0))


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
