"""Seeded random potentials and disorder-averaged observables.

Randomness is counter-based: draw i of stream `seed` is a 64-bit avalanche
hash of (seed, i), so any slice of any realization can be generated in any
order, in parallel, and still match the serial result bit for bit. That
property is load-bearing for the reproducibility contract of the ensemble
routines, which seed realization j as base_seed + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectra import Histogram, dos, sample_values

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM = np.uint64(0xD1B54A32D192ED03)


def _avalanche(x) -> np.ndarray:
    """64-bit finalizer (splitmix64 style), vectorized on uint64 arrays.

    Inputs are coerced to uint64 arrays of at least one dimension: numpy
    wraps array integer arithmetic silently, while the scalar path would
    emit overflow warnings.
    """
    z = np.atleast_1d(np.asarray(x, dtype=np.uint64)) + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def hashed_bits(seed: int, index) -> np.ndarray:
    """uint64 hash of (seed, index), vectorized over index."""
    base = _avalanche(int(seed) & _MASK64)
    idx = np.atleast_1d(np.asarray(index, dtype=np.uint64))
    return _avalanche((idx * _STREAM) ^ base)


def hashed_uniform(seed: int, index) -> np.ndarray:
    """Floats in [0, 1), one per counter value."""
    return (hashed_bits(seed, index) >> np.uint64(11)) * 2.0**-53


def hashed_normal(seed: int, index) -> np.ndarray:
    """Standard normals via Box-Muller on counters (2i, 2i+1)."""
    idx = np.atleast_1d(np.asarray(index, dtype=np.uint64))
    u1 = ((hashed_bits(seed, idx * np.uint64(2)) >> np.uint64(11)) + np.uint64(1)) * (
        2.0**-53
    )
    u2 = hashed_uniform(seed, idx * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def anderson_realization(
    side: int, distribution: str, strength: float, seed: int
) -> np.ndarray:
    """iid on-site couplings of a side x side box, keyed by (seed, site) and
    flat in site order.

    distribution is "uniform" (couplings in [-strength/2, strength/2]) or
    "gaussian" (mean zero, standard deviation = strength).
    """
    if side < 1:
        raise ConfigError(f"box side must be >= 1, got {side}")
    if strength < 0:
        raise ConfigError(f"disorder strength must be >= 0, got {strength}")
    sites = np.arange(side * side)
    if distribution == "uniform":
        return (hashed_uniform(seed, sites) - 0.5) * strength
    if distribution == "gaussian":
        return hashed_normal(seed, sites) * strength
    raise ConfigError(
        f"unknown distribution {distribution!r}; use 'uniform' or 'gaussian'"
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Disorder-averaged histogram with per-bin standard errors."""

    histogram: Histogram
    stderr: np.ndarray


def ensemble_dos(
    builder,
    n: int,
    base_seed: int,
    width: float = 0.05,
    bins: int = 200,
    bounds: tuple | None = None,
) -> EnsembleStats:
    """Average the smoothed DOS of the eigenvalues builder(seed) returns
    over seeds base..base+n-1.

    All realizations share one binning; when no bounds are given they are
    fixed from the pooled eigenvalue range so the average is well defined.
    """
    if n < 1:
        raise ConfigError(f"need at least one realization, got {n}")
    values = [sample_values(builder(int(base_seed) + i)) for i in range(n)]
    if bounds is None:
        pad = 8.0 * width
        bounds = (
            min(float(v.min()) for v in values) - pad,
            max(float(v.max()) for v in values) + pad,
        )
    hists = [dos(v, width=width, bins=bins, bounds=bounds) for v in values]
    stack = np.stack([h.density for h in hists])
    mean = stack.mean(axis=0)
    if n > 1:
        stderr = stack.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros_like(mean)
    return EnsembleStats(
        histogram=Histogram(edges=hists[0].edges, density=mean), stderr=stderr
    )


def gap_fill_fraction(clean: np.ndarray, hist: Histogram) -> float:
    """Fraction of the DOS mass of hist inside the gaps of the clean band set.

    Bins straddling a gap edge contribute pro rata.
    """
    if len(clean) < 2:
        raise ConfigError("clean spectrum has no gap to fill")
    edges = hist.edges
    widths = np.diff(edges)
    total = float(np.sum(hist.density * widths))
    if total <= 0:
        raise ConfigError("histogram carries no mass")
    inside = 0.0
    for lo, hi in zip(clean[:-1, 1], clean[1:, 0]):
        overlap = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        inside += float(np.sum(hist.density * np.clip(overlap, 0.0, None)))
    return inside / total
