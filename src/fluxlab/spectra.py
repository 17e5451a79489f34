"""Spectral post-processing: eigenvalue collection, band intervals, distances.

A spectrum is a sorted 1-D float array of eigenvalues; a band set is an
(n, 2) float array of disjoint ascending (lo, hi) rows.

The Hausdorff distance here is exact on finite unions of closed intervals
(isolated points count as zero-length intervals). It is the workhorse metric
for "do these two spectra agree locally" comparisons across the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateBandsError, NumericalCheckError
from .lattice import BlochFiberFamily, RationalFlux, hofstadter_family

_CHUNK_ENTRIES = 4_000_000  # complex fiber entries built at once
_HERMITIAN_ROWS = 32  # rows of a matrix whose skew check_hermitian holds at once
_ERF = np.frompyfunc(math.erf, 1, 1)
# erf(z) rounds to exactly +-1.0 in double precision for |z| >= this
_ERF_SATURATION = 6.0


def check_hermitian(matrix: np.ndarray) -> float:
    """max |M - M^dag|, 0 for an empty matrix; raise unless it is <= 1e-12.

    The maximum is taken over blocks of _HERMITIAN_ROWS rows, so the
    temporaries are a few rows long instead of d x d; a NaN entry anywhere
    makes the deviation NaN, as the whole-matrix maximum would.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = 0.0
    for start in range(0, len(m), _HERMITIAN_ROWS):
        stop = start + _HERMITIAN_ROWS
        skew = np.abs(m[start:stop] - m[:, start:stop].conj().T)
        dev = np.maximum(dev, np.max(skew))  # np.maximum keeps a NaN
    dev = float(dev)
    if not dev <= 1e-12:  # a NaN deviation fails too
        raise NumericalCheckError(
            f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}"
        )
    return dev


def eigenvalues_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Sorted real eigenvalues of a Hermitian matrix, Hermiticity checked."""
    check_hermitian(matrix)
    return np.linalg.eigvalsh(np.asarray(matrix))


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
        h = family.batch(k1[start : start + rows, None], k2)
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
    For even q the two central rows touch at 0; band_intervals merges them
    at any tolerance, as hausdorff and distance_to_intervals do.
    """
    return _solve_with_corners(flux.q, [flux.p])[1][0]


def _solve_with_corners(q: int, numerators, k1=(), k2=()):
    """Eigenvalues of the hofstadter_family fibers of every flux p/q, p in
    numerators, at the momenta (k1[i], k2[i]) and at the two band corners
    of exact_bands, all in one eigensolve.

    Each flux's fibers are built by one batch call into one preallocated
    stack. Returns (solved, bands): the eigenvalues at the momenta, shape
    (len(numerators), len(k1), q), and each flux's exact_bands rows, shape
    (len(numerators), q, 2).
    """
    edge = np.pi / q
    k1 = np.concatenate((k1, [0.0, edge]))
    k2 = np.concatenate((k2, [0.0, edge]))
    stack = np.empty((len(numerators), len(k1), q, q), dtype=complex)
    for fibers, p in zip(stack, numerators):
        fibers[...] = hofstadter_family(RationalFlux(p, q)).batch(k1, k2)
    w = np.linalg.eigvalsh(stack)
    return w[:, :-2], np.sort(w[:, -2:].swapaxes(1, 2), axis=2)


def band_quantiles(q: int, numerators, n: int, quantiles):
    """Per-band min, max and quantiles of the hofstadter_family fiber
    eigenvalues over the n x n zone grid, for every flux p/q with p in
    numerators, from a few fibers and one eigensolve.

    By the Chambers relation (see exact_bands) the j-th sorted eigenvalue
    E_j is a monotone function of s = cos(q k1) + cos(q k2), so band j's
    order statistics over the grid are E_j at the same ranks of the sorted
    s values: in ascending order for an increasing E_j, mirrored for a
    decreasing one. Only the fibers at the ranks np.quantile reads (0,
    N - 1 and the floor and ceil of each (N - 1) * quantile, N = n^2) and
    at their mirrors N - 1 - r are solved. Over that mirror-closed rank set
    each band's sorted values are its order statistics either way, and the
    quantiles are numpy's own lerp between two of them. The s order and the
    rank set depend on q alone, so they are found once for all numerators.
    Each fiber is solved at the representatives of its Chambers class pair,
    ordered as fiber_eigenvalues orders them, so its eigenvalues are bit
    for bit the ones fiber_eigenvalues gives at that grid point.

    Returns (lo, hi, quants, solved, bands), each with a leading axis over
    numerators: the band minima and maxima, shape (q,) per flux, the
    quantiles as np.quantile(..., axis=0) gives them, shape
    (len(quantiles), q), the solved eigenvalues, shape (m, q), and the
    exact_bands rows, shape (q, 2).
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    rep, cls = _chambers_classes(n, q)
    k = _zone_grid(n)[rep]
    c = np.cos(q * k)[cls]  # cos(q k) on the grid, equal within a class
    order = np.argsort((c[:, None] + c).ravel(), kind="stable")
    last = n * n - 1
    h = last * np.asarray(quantiles, dtype=float)
    ranks = np.concatenate(([0, last], np.floor(h), np.ceil(h))).astype(int)
    # a set union: np.union1d would import numpy.ma
    ranks = np.array(sorted({*ranks.tolist(), *(last - ranks).tolist()}))
    j1, j2 = np.divmod(order[ranks], n)
    r1, r2 = np.sort([cls[j1], cls[j2]], axis=0)
    solved, bands = _solve_with_corners(q, numerators, k[r1], k[r2])
    vals = np.sort(solved, axis=1)  # row i: the order statistic of rank ranks[i]
    a = vals[:, np.searchsorted(ranks, np.floor(h))]
    b = vals[:, np.searchsorted(ranks, np.ceil(h))]
    t = (h - np.floor(h))[:, None]
    # np.quantile's lerp, written out so the values match it bit for bit
    quants = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return vals[:, 0], vals[:, -1], quants, solved, bands


def _sorted_sample(values) -> np.ndarray:
    """The values as a sorted 1-D float array, sorted only if they do not
    ascend already (a NaN fails that check); raises on an empty one."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("empty spectrum sample")
    if not np.all(vals[1:] >= vals[:-1]):
        vals = np.sort(vals)
    return vals


def _union(obj, gap_tol: float):
    """(lo, hi) of the disjoint ascending union of (n, 2) rows in any order
    or of a flat sample's values as points, merged across gaps <= gap_tol.

    The running max of hi skips a NaN edge (fmax), so a NaN merges only its
    own gap; the hi of its group is NaN.
    """
    if gap_tol < 0:
        raise ValueError("gap_tol must be >= 0")
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2 and arr.size:
        if not np.all(arr[1:, 0] >= arr[:-1, 0]):
            arr = arr[np.argsort(arr[:, 0], kind="stable")]
        los, his = arr[:, 0], np.maximum(arr[:, 0], arr[:, 1])
    else:
        los = his = _sorted_sample(arr)
    gaps = los[1:] - np.fmax.accumulate(his)[:-1]
    starts = np.concatenate(([0], np.flatnonzero(gaps > gap_tol) + 1))
    return los[starts], np.maximum.reduceat(his, starts)


def band_intervals(bands, gap_tol: float) -> np.ndarray:
    """The disjoint ascending (lo, hi) rows of an interval union in any form
    hausdorff takes (rows in any order, or a sample's values as zero-width
    rows); only a gap above gap_tol splits. A NaN edge merges its own gap
    and makes its row's hi NaN; the later gaps stay."""
    return np.column_stack(_union(bands, gap_tol))


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

    intervals takes any form band_intervals takes; points inside the union
    are at distance 0.
    """
    los, his = _union(intervals, 0.0)
    return _union_distance(np.asarray(points, dtype=float), los, his)


def hausdorff(a, b) -> float:
    """Exact Hausdorff distance between two finite unions of closed intervals.

    The directed distance sup_{x in A} dist(x, B) is attained either at an
    endpoint of A or at the midpoint of a gap of B covered by A, so checking
    those finitely many candidates is exact. Everything runs on sorted
    arrays (a sorted sample is not sorted again), so million-point
    eigenvalue samples are fine as inputs; a and b merge as in
    band_intervals(., 0). The result is NaN when either directed distance is.
    """
    alos, ahis = _union(a, 0.0)
    blos, bhis = _union(b, 0.0)

    def directed(flos, fhis, tlos, this):
        mids = 0.5 * (this[:-1] + tlos[1:])
        mids = mids[_union_distance(mids, flos, fhis) == 0]
        cand = np.concatenate((flos, fhis[fhis > flos], mids))
        return float(_union_distance(cand, tlos, this).max())

    forward = directed(alos, ahis, blos, bhis)
    backward = directed(blos, bhis, alos, ahis)
    # np.max, unlike the builtin max, is NaN when either direction is NaN
    return float(np.max([forward, backward]))


def dos(sample, width: float, bins: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel smoothed density of states on bins uniform bins of
    the energy range bounds = (lo, hi).

    Returns (edges, density): the bins + 1 bin edges and the density of each
    bin. The per-bin mass is the exact integral of the Gaussian mixture over
    the bin (difference of error functions), not a midpoint evaluation. The
    masses are normalized over the range, so sum(density) * bin width is 1.
    """
    vals = _sorted_sample(sample)
    if width <= 0:
        raise ValueError("width must be > 0")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = map(float, bounds)
    if hi <= lo:
        raise ValueError("empty energy range")
    edges = np.linspace(lo, hi, bins + 1)
    z = (edges[None, :] - vals[:, None]) / (width * np.sqrt(2.0))
    erf = np.sign(z)
    live = ~(np.abs(z) >= _ERF_SATURATION)  # NaN is live and stays NaN
    erf[live] = _ERF(z[live])
    cdf = 0.5 * (1.0 + erf)
    mass = np.sum(cdf[:, 1:] - cdf[:, :-1], axis=0) / vals.size
    total = float(mass.sum())
    if total <= 0:
        raise ValueError("all spectral weight fell outside the range")
    return edges, mass / total / (edges[1] - edges[0])


def tknn_cherns(flux: RationalFlux) -> list[int]:
    """Band Chern numbers of the nearest-neighbour model at flux p/q.

    From the Diophantine equation r = q s_r + p t_r with |t_r| < q/2 of
    Thouless, Kohmoto, Nightingale and den Nijs (PRL 49, 405 (1982)): band r
    (counted from 1) has Chern number t_r - t_{r-1}. For odd q, t_r is
    r p^{-1} mod q taken in (-q/2, q/2). For even q the two central bands
    touch at energy 0 and DegenerateBandsError is raised.
    """
    p, q = flux.p, flux.q
    if q % 2 == 0:
        raise DegenerateBandsError(
            f"bands {q // 2 - 1} and {q // 2} touch at energy 0 for even q = {q}; "
            "Chern numbers are undefined there"
        )
    inverse, half = pow(p, -1, q), q // 2
    t = [(r * inverse + half) % q - half for r in range(q + 1)]
    return [b - a for a, b in zip(t, t[1:])]


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
    h = family.batch(ks[:, None], ks)
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
