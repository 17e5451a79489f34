"""Tests for eigenvalue collection, band intervals, distances, DOS, Chern numbers."""

import numpy as np
import pytest

from fluxlab import (
    BandIntervals,
    BlochFiberFamily,
    DegenerateBandsError,
    NumericalCheckError,
    RationalFlux,
    SpectrumSample,
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
    spectra,
    spectrum_union,
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


def test_spectrum_sample_sorted_and_nonempty():
    s = SpectrumSample(values=[3.0, 1.0, 2.0])
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SpectrumSample(values=[])


def test_band_intervals_small_example():
    bands = band_intervals(np.array([0.0, 0.001, 5.0]), gap_tol=0.1)
    assert bands.intervals == ((0.0, 0.001), (5.0, 5.0))
    assert bands.gaps() == [(0.001, 5.0)]


def test_band_intervals_validation():
    with pytest.raises(ValueError):
        band_intervals(np.array([0.0, 1.0]), gap_tol=-0.5)
    with pytest.raises(ValueError):
        BandIntervals(intervals=((0.0, 1.0), (0.5, 2.0)), gap_tol=0.1)
    with pytest.raises(ValueError):
        BandIntervals(intervals=((1.0, 0.0),), gap_tol=0.1)


def test_band_counts_for_standard_fluxes():
    third = spectrum_union(hofstadter_family(RationalFlux(1, 3)), 100)
    assert len(band_intervals(third, 0.05).intervals) == 3
    # the half-flux bands touch at E = 0 through a conical point, so the
    # sample needs a dense grid there before the merge sees one interval
    half = spectrum_union(hofstadter_family(RationalFlux(1, 2)), 256)
    assert len(band_intervals(half, 0.05).intervals) == 1


def test_default_gap_tol_ignores_duplicates():
    vals = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    tol = default_gap_tol(vals)
    assert abs(tol - 10.0) < 1e-9  # median spacing of distinct values is 1


def test_hausdorff_examples():
    a = BandIntervals(intervals=((0.0, 1.0),), gap_tol=0.0)
    assert hausdorff(a, a) == 0.0
    b = BandIntervals(intervals=((0.1, 1.1),), gap_tol=0.0)
    assert abs(hausdorff(a, b) - 0.1) < 1e-14
    c = BandIntervals(intervals=((-1.0, 0.5), (0.6, 1.0)), gap_tol=0.0)
    full = BandIntervals(intervals=((-1.0, 1.0),), gap_tol=0.0)
    assert abs(hausdorff(full, c) - 0.05) < 1e-14


def test_hausdorff_accepts_raw_values():
    # point sets: the midpoint is 0.5 away from both ends
    assert abs(hausdorff([0.0, 1.0], [0.0, 1.0, 0.5]) - 0.5) < 1e-14
    # interval against points: worst spot is the covered gap midpoint 0.25
    assert abs(hausdorff(np.array([[0.0, 1.0]]), [0.0, 0.5, 1.0]) - 0.25) < 1e-14
    with pytest.raises(ValueError):
        hausdorff([], [0.0])


def random_interval_union(rng):
    pts = np.sort(rng.uniform(-3, 3, size=rng.integers(2, 7) * 2))
    return BandIntervals(
        intervals=tuple((pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)),
        gap_tol=0.0,
    )


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
        if a.intervals != b.intervals:
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
        # a pure point set gives the same distance as a flat value array,
        # a SpectrumSample or zero-length intervals
        points = a[:, 0]
        expect = hausdorff(np.column_stack((points, points)), b)
        assert hausdorff(points, b) == expect
        assert hausdorff(SpectrumSample(points), b) == expect


def test_spectrum_union_refines_monotonically():
    fam = hofstadter_family(RationalFlux(1, 3))
    s16 = spectrum_union(fam, 16).values
    s32 = spectrum_union(fam, 32).values
    s64 = spectrum_union(fam, 64).values
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
    assert s.values.size == 5
    assert np.allclose(s.values, np.linalg.eigvalsh(fam.matrix(0.0, 0.0)), atol=1e-12)


def test_spectrum_union_chunking_consistent(monkeypatch):
    fam = hofstadter_family(RationalFlux(1, 3))
    a = spectrum_union(fam, 24).values
    calls = []
    batch = BlochFiberFamily.batch

    def counted(self, k1, k2):
        calls.append(len(k1))
        return batch(self, k1, k2)

    monkeypatch.setattr(BlochFiberFamily, "batch", counted)
    # one grid row of 24 fibers of dimension 3 holds 216 entries: 2 rows a chunk
    monkeypatch.setattr(spectra, "_CHUNK_ENTRIES", 500)
    b = spectrum_union(fam, 24).values
    assert calls == [2] * 12
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        spectrum_union(fam, 0)


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
