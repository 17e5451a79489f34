"""Tests for counter-based randomness, disorder fields, ensemble averages."""

import numpy as np
import pytest

from fluxlab import (
    BandIntervals,
    ConfigError,
    EnsembleStats,
    Histogram,
    anderson_realization,
    dos,
    ensemble_dos,
    gap_fill_fraction,
    hashed_bits,
    hashed_normal,
    hashed_uniform,
)


def test_zero_strength_gives_zero_couplings():
    for dist in ("uniform", "gaussian"):
        r = anderson_realization(8, dist, 0.0, seed=3)
        assert np.all(r == 0.0)


def test_same_seed_is_bit_identical():
    a = anderson_realization(12, "uniform", 1.5, seed=9)
    b = anderson_realization(12, "uniform", 1.5, seed=9)
    assert np.array_equal(a, b)
    c = anderson_realization(12, "uniform", 1.5, seed=10)
    assert not np.array_equal(a, c)


def test_uniform_law_statistics():
    w = 1.0
    vals = anderson_realization(1000, "uniform", w, seed=123)
    assert vals.size == 1_000_000
    assert np.all(vals >= -0.5 * w)
    assert np.all(vals < 0.5 * w)
    # mean of 1e6 iid uniforms: 3 sigma band around zero
    assert abs(vals.mean()) <= 3.0 * (w / np.sqrt(12.0)) / 1000.0
    assert abs(vals.var() - w * w / 12.0) < 0.01 * w * w / 12.0
    assert vals.min() < -0.499 * w
    assert vals.max() > 0.499 * w


def test_gaussian_law_statistics():
    s = 2.0
    vals = anderson_realization(1000, "gaussian", s, seed=77)
    assert abs(vals.mean()) <= 3.0 * s / 1000.0
    assert abs(vals.std() - s) < 0.01 * s
    inside = np.mean(np.abs(vals) < s)
    assert abs(inside - 0.682689) < 0.003


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigError):
        anderson_realization(8, "uniform", -0.1, seed=0)
    with pytest.raises(ConfigError):
        anderson_realization(8, "lognormal", 1.0, seed=0)
    with pytest.raises(ConfigError):
        anderson_realization(0, "uniform", 1.0, seed=0)


def test_hashed_streams_vectorize_and_stay_in_range():
    u = hashed_uniform(5, np.arange(10_000))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    onebyone = np.array([hashed_uniform(5, i)[0] for i in range(20)])
    assert np.array_equal(u[:20], onebyone)
    bits = hashed_bits(5, np.arange(6))
    assert bits.dtype == np.uint64
    assert len(set(bits.tolist())) == 6
    n = hashed_normal(11, np.arange(8))
    n_single = np.array([hashed_normal(11, i)[0] for i in range(8)])
    assert np.array_equal(n, n_single)


def test_profile_guards():
    onsite = anderson_realization(4, "uniform", 1.0, seed=1)
    assert onsite.shape == (16,)


def gue_values(seed, dim=24):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))


def test_ensemble_of_one_matches_plain_dos():
    stats = ensemble_dos(gue_values, 1, base_seed=42, width=0.05, bins=120)
    assert np.all(stats.stderr == 0.0)
    vals = gue_values(42)
    bounds = (float(vals.min()) - 0.4, float(vals.max()) + 0.4)
    single = dos(vals, width=0.05, bins=120, bounds=bounds)
    assert np.allclose(stats.histogram.density, single.density, atol=1e-15)
    assert np.array_equal(stats.histogram.edges, single.edges)


def test_ensemble_mean_matches_manual_average():
    bounds = (-12.0, 12.0)
    stats = ensemble_dos(gue_values, 8, base_seed=0, width=0.1, bins=64, bounds=bounds)
    manual = np.mean(
        [dos(gue_values(s), width=0.1, bins=64, bounds=bounds).density for s in range(8)],
        axis=0,
    )
    assert np.allclose(stats.histogram.density, manual, atol=1e-15)
    again = ensemble_dos(gue_values, 8, base_seed=0, width=0.1, bins=64, bounds=bounds)
    assert np.array_equal(stats.histogram.density, again.histogram.density)


def test_ensemble_stderr_vanishes_for_identical_realizations():
    stats = ensemble_dos(lambda seed: np.array([0.0, 1.0, 2.0]), 5, base_seed=0)
    # the rows are bit identical; the residual is mean-subtraction roundoff
    assert np.all(stats.stderr < 1e-12)
    assert isinstance(stats, EnsembleStats)


def test_ensemble_rejects_empty():
    with pytest.raises(ConfigError):
        ensemble_dos(gue_values, 0, base_seed=0)


def test_gap_fill_fraction_uniform_mass():
    clean = BandIntervals(intervals=((0.0, 1.0), (2.0, 3.0)), gap_tol=0.1)
    for bins in (300, 5):
        edges = np.linspace(0.0, 3.0, bins + 1)
        hist = Histogram(edges=edges, density=np.full(bins, 1.0 / 3.0))
        fill = gap_fill_fraction(clean, hist)
        # a third of uniform mass sits in the single gap (1, 2); the bin
        # overlap is pro rated so misaligned edges still come out exact
        assert abs(fill - 1.0 / 3.0) < 1e-12


def test_gap_fill_fraction_guards():
    solid = BandIntervals(intervals=((0.0, 3.0),), gap_tol=0.1)
    edges = np.linspace(0.0, 3.0, 11)
    hist = Histogram(edges=edges, density=np.full(10, 0.1))
    with pytest.raises(ConfigError):
        gap_fill_fraction(solid, hist)
    gapped = BandIntervals(intervals=((0.0, 1.0), (2.0, 3.0)), gap_tol=0.1)
    empty = Histogram(edges=edges, density=np.zeros(10))
    with pytest.raises(ConfigError):
        gap_fill_fraction(gapped, empty)


def test_gap_fill_fraction_of_ensemble_histogram():
    clean = BandIntervals(intervals=((-30.0, -0.5), (0.5, 30.0)), gap_tol=0.1)
    stats = ensemble_dos(gue_values, 4, base_seed=3, bounds=(-31.0, 31.0))
    fill = gap_fill_fraction(clean, stats.histogram)
    assert 0.0 <= fill <= 1.0
