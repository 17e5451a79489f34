"""Spectral post-processing: eigenvalue collection, band intervals, distances.

A spectrum is a sorted 1-D float array of eigenvalues; a band set is an
(n, 2) float array of disjoint ascending (lo, hi) rows.

The Hausdorff distance here is exact on finite unions of closed intervals
(isolated points count as zero-length intervals). It is the workhorse metric
for "do these two spectra agree locally" comparisons across the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DegenerateBandsError, NumericalCheckError
from .lattice import BlochFiberFamily, RationalFlux, hofstadter_family

_DEDUP_ATOL = 1e-13
_CHUNK_ENTRIES = 4_000_000  # complex fiber entries built at once


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin density histogram; sum(density) * bin width is 1."""

    edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def check_hermitian(matrix: np.ndarray) -> None:
    """Raise unless max |M - M^dag| <= 1e-12."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not dev <= 1e-12:  # a NaN deviation fails too
        raise NumericalCheckError(
            f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}"
        )


def eigenvalues_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Sorted real eigenvalues of a Hermitian matrix, Hermiticity checked."""
    check_hermitian(matrix)
    return np.linalg.eigvalsh(np.asarray(matrix))


def eigh_hermitian(matrix: np.ndarray):
    """(eigenvalues, eigenvectors) with the same validation as above."""
    check_hermitian(matrix)
    return np.linalg.eigh(np.asarray(matrix))


def _zone_grid(n: int) -> np.ndarray:
    """The n momenta 2 pi j / n, j = 0..n-1, uniform on [0, 2pi).

    The grid contains k = 0 exactly and, for even n, k = pi as well, which
    puts the band extrema of the standard families on the grid.
    """
    return 2.0 * np.pi * np.arange(n) / n


def fiber_eigenvalues(
    family: BlochFiberFamily, n1: int, n2: int | None = None
) -> np.ndarray:
    """Eigenvalues of every fiber on the zone grid n1 x n2, shape (n1, n2, q).

    For a family that declares the Chambers relation (family.chambers), the
    spectrum at k depends only on cos(q k1) + cos(q k2). On the grid
    k = 2 pi j / n, cos(q k) depends only on the integer
    r = min(qj mod n, n - qj mod n), so one fiber per distinct r on each
    axis is solved, at the first grid point with that r, and the result is
    scattered back to the grid. On a square grid the pair (r1, r2) is
    unordered as well and only one triangle is solved. Other families solve
    every grid fiber.
    """
    if n2 is None:
        n2 = n1
    if n1 < 1 or n2 < 1:
        raise ValueError("grid sizes must be >= 1")
    k1, k2 = _zone_grid(n1), _zone_grid(n2)
    if not family.chambers:
        return _product_eigenvalues(family, k1, k2, triangle=False)
    rep1, i1 = _chambers_classes(n1, family.dim)
    rep2, i2 = _chambers_classes(n2, family.dim)
    tab = _product_eigenvalues(family, k1[rep1], k2[rep2], triangle=n1 == n2)
    return tab[i1][:, i2]


def _chambers_classes(n: int, q: int):
    """First grid index of each distinct r = min(qj mod n, n - qj mod n),
    and the class of every grid index j = 0..n-1."""
    r = q * np.arange(n) % n
    _, rep, inv = np.unique(
        np.minimum(r, n - r), return_index=True, return_inverse=True
    )
    return rep, inv


def _product_eigenvalues(family, k1, k2, triangle: bool) -> np.ndarray:
    """Eigenvalues on the product grid k1 x k2, shape (len(k1), len(k2), q).

    Row chunks are built and solved in one batched eigensolve each, holding
    at most about _CHUNK_ENTRIES fiber entries at once. With triangle (k1
    and k2 the same momenta and a spectrum symmetric in them) only the
    fibers on or above the diagonal are solved, and the rest are mirrored.
    """
    n1, n2, q = len(k1), len(k2), family.dim
    rows = max(1, _CHUNK_ENTRIES // (n2 * q * q))
    out = np.empty((n1, n2, q))
    for start in range(0, n1, rows):
        h = family.batch(k1[start : start + rows], k2)
        if triangle:
            upper = np.arange(n2) >= np.arange(start, start + len(h))[:, None]
            out[start : start + rows][upper] = np.linalg.eigvalsh(h[upper])
        else:
            out[start : start + rows] = np.linalg.eigvalsh(h)
    if triangle:
        lower = np.tril_indices(n1, -1)
        out[lower] = out[lower[::-1]]
    return out


def spectrum_union(
    family: BlochFiberFamily, n1: int, n2: int | None = None
) -> np.ndarray:
    """Sorted union of fiber eigenvalues over the zone grid n1 x n2 on [0, 2pi)^2."""
    return np.sort(fiber_eigenvalues(family, n1, n2).ravel())


def exact_bands(flux: RationalFlux) -> np.ndarray:
    """Exact bands of the nearest-neighbour model, shape (q, 2) as (lo, hi).

    By the Chambers relation det(E - H(k)) = P_q(E) - 2 cos(q k1) - 2 cos(q k2)
    (W. G. Chambers, Phys. Rev. 140, A135 (1965)), the spectrum of the
    hofstadter_family fiber depends on k only through cos(q k1) + cos(q k2),
    so band j runs between eigenvalue j at k = (0, 0) and at (pi/q, pi/q).
    For even q the two central rows touch at 0; hausdorff and
    distance_to_intervals merge them.
    """
    family = hofstadter_family(flux)
    edge = np.pi / flux.q
    corners = np.stack([family.matrix(0.0, 0.0), family.matrix(edge, edge)])
    return np.sort(np.linalg.eigvalsh(corners).T, axis=1)


def sample_values(values) -> np.ndarray:
    """The values as a sorted 1-D float array; raises on an empty one."""
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    if vals.size == 0:
        raise ValueError("empty spectrum sample")
    return vals


def default_gap_tol(values: np.ndarray) -> float:
    """10x the median nearest-neighbor spacing of the distinct values.

    Exact duplicates (degenerate levels resolved at roundoff scale) are
    dropped first; otherwise a heavily degenerate spectrum drives the median
    spacing to the 1e-15 scale and every distinct value becomes an interval.
    """
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    if vals.size < 2:
        return _DEDUP_ATOL
    spacings = np.diff(vals)
    spacings = spacings[spacings > _DEDUP_ATOL * max(1.0, np.abs(vals).max())]
    if spacings.size == 0:
        return _DEDUP_ATOL
    return 10.0 * float(np.median(spacings))


def band_intervals(sample, gap_tol: float) -> np.ndarray:
    """Merge consecutive eigenvalues at most gap_tol apart into a band set."""
    vals = sample_values(sample)
    if gap_tol < 0:
        raise ValueError("gap_tol must be >= 0")
    breaks = np.flatnonzero(np.diff(vals) > gap_tol)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [vals.size - 1]))
    return np.column_stack((vals[starts], vals[ends]))


def _interval_arrays(obj):
    """Canonical (lo, hi) arrays of a disjoint ascending interval union.

    Accepts an (n, 2) array of intervals or a flat array of values
    (degenerate intervals). Overlapping or duplicate inputs are merged so
    downstream gap logic can rely on strict ordering. A flat array that is
    already non-decreasing, such as a spectrum_union sample, is not sorted
    again.
    """
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        order = np.argsort(arr[:, 0], kind="stable")
        los, his = arr[order, 0], np.maximum(arr[order, 0], arr[order, 1])
    else:
        los = his = arr.ravel()
        if not np.all(los[1:] >= los[:-1]):  # NaN compares false: sorted
            los = his = np.sort(los)
    if los.size == 0:
        raise ValueError("empty interval set")
    run = np.maximum.accumulate(his)
    keep = np.flatnonzero(los[1:] > run[:-1])
    starts = np.concatenate(([0], keep + 1))
    ends = np.concatenate((keep, [los.size - 1]))
    return los[starts], run[ends]


def _in_union(points, los, his):
    idx = np.searchsorted(los, points, side="right") - 1
    safe = np.clip(idx, 0, los.size - 1)
    return (idx >= 0) & (points <= his[safe])


def _union_distance(points, los, his):
    """Distance from each point to the union of [los[i], his[i]]."""
    idx = np.searchsorted(los, points, side="right") - 1
    prev = np.clip(idx, 0, los.size - 1)
    d_prev = np.where(idx >= 0, np.maximum(points - his[prev], 0.0), np.inf)
    nxt = np.clip(idx + 1, 0, los.size - 1)
    d_next = np.where(
        idx + 1 < los.size, np.maximum(los[nxt] - points, 0.0), np.inf
    )
    return np.minimum(d_prev, d_next)


def distance_to_intervals(points, intervals) -> np.ndarray:
    """Distance from each point to a finite union of closed intervals.

    intervals takes any form hausdorff accepts; points inside the union
    are at distance 0.
    """
    los, his = _interval_arrays(intervals)
    return _union_distance(np.asarray(points, dtype=float), los, his)


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite unions of closed intervals.

    The directed distance sup_{x in A} dist(x, B) is attained either at an
    endpoint of A or at the midpoint of a gap of B covered by A, so checking
    those finitely many candidates is exact. Everything runs on sorted
    arrays, so million-point eigenvalue samples are fine as inputs.
    """
    alos, ahis = _interval_arrays(a)
    blos, bhis = _interval_arrays(b)

    def directed(flos, fhis, tlos, this):
        mids = 0.5 * (this[:-1] + tlos[1:])
        mids = mids[_in_union(mids, flos, fhis)]
        cand = np.concatenate((flos, fhis[fhis > flos], mids))
        return float(_union_distance(cand, tlos, this).max())

    return max(directed(alos, ahis, blos, bhis), directed(blos, bhis, alos, ahis))


def dos(
    sample,
    width: float = 0.05,
    bins: int = 200,
    bounds: tuple | None = None,
) -> Histogram:
    """Gaussian-kernel smoothed density of states on a uniform binning.

    The per-bin mass is the exact integral of the Gaussian mixture over the
    bin (difference of error functions), not a midpoint evaluation. The
    masses are normalized over the range, so the densities integrate to 1.
    """
    vals = sample_values(sample)
    if width <= 0:
        raise ValueError("width must be > 0")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bounds is None:
        pad = 8.0 * width
        bounds = (float(vals.min() - pad), float(vals.max() + pad))
    lo, hi = map(float, bounds)
    if hi <= lo:
        raise ValueError("empty energy range")
    edges = np.linspace(lo, hi, bins + 1)
    z = (edges[None, :] - vals[:, None]) / (width * np.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    mass = np.sum(cdf[:, 1:] - cdf[:, :-1], axis=0) / vals.size
    total = float(mass.sum())
    if total <= 0:
        raise ValueError("all spectral weight fell outside the range")
    density = mass / total / (edges[1] - edges[0])
    return Histogram(edges=edges, density=density)


def chern_numbers(family: BlochFiberFamily, grid: int = 30) -> list[int]:
    """Band Chern numbers from lattice field strengths of overlap links.

    The link-variable sum runs over the full [0, 2pi)^2 zone where the fiber
    family is exactly matrix-periodic, then divides by q: the Berry curvature
    repeats across the q magnetic subcells, so the full-zone integer is q
    times the magnetic-zone Chern number. A non-divisible raw sum or a band
    degeneracy on the grid (a band gap below 1e-8) raises instead of
    returning a rounded guess.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    q = family.dim
    ks = _zone_grid(grid)
    h = family.batch(ks, ks)
    w, v = np.linalg.eigh(h)

    # a single band (q = 1) has no neighbour to touch
    if q > 1:
        sep = np.diff(w, axis=-1)
        worst = np.unravel_index(np.argmin(sep), sep.shape)
        if sep[worst] < 1e-8:
            k_point = (float(ks[worst[0]]), float(ks[worst[1]]))
            raise DegenerateBandsError(
                f"bands {worst[2]} and {worst[2] + 1} are degenerate at "
                f"k = ({k_point[0]:.6f}, {k_point[1]:.6f}) "
                f"(gap {sep[worst]:.3e}); Chern numbers are undefined there",
                k_point=k_point,
            )

    vx = np.roll(v, -1, axis=0)
    vy = np.roll(v, -1, axis=1)
    vxy = np.roll(vx, -1, axis=1)
    link1 = np.einsum("xyir,xyir->xyr", v.conj(), vx)
    link2 = np.einsum("xyir,xyir->xyr", vx.conj(), vxy)
    link3 = np.einsum("xyir,xyir->xyr", vxy.conj(), vy)
    link4 = np.einsum("xyir,xyir->xyr", vy.conj(), v)
    fluxes = np.angle(link1 * link2 * link3 * link4)
    raw_full = fluxes.sum(axis=(0, 1)) / (2.0 * np.pi)

    raw = raw_full / q
    rounded = np.round(raw)
    if np.max(np.abs(raw - rounded)) > 0.01:
        raise NumericalCheckError(
            "lattice field-strength sums are not integers "
            f"(raw per-band values {raw.tolist()}); refine the grid"
        )
    return [int(c) for c in rounded]
