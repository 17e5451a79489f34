"""Independent constructions the tests check the library against.

None of these is used by the library itself: each one builds or measures a
quantity a second way, written out from its definition.
"""

from math import cos, pi

import numpy as np


def harper_fiber(flux, theta, k):
    """Bloch-reduced 1D quasiperiodic-cosine fiber at rational frequency p/q.

    Diagonal 2 cos(2 pi (theta + j p/q)), hop e^{i k} with the cyclic wrap.
    Written out entry by entry, independently of `hofstadter_family`, whose
    fiber at (k1, k2) = (k, 2 pi theta) it equals.
    """
    q = flux.q
    h = np.zeros((q, q), dtype=complex)
    for j in range(q):
        h[j, j] = 2.0 * cos(2.0 * pi * (theta + j * flux.value))
        h[(j + 1) % q, j] += np.exp(1j * k)
        h[j, (j + 1) % q] += np.exp(-1j * k)
    return h


def plaquette_flux(matrix, L, boundary, n=0, m=0):
    """Flux through one plaquette of an L x L box matrix, in flux quanta, in
    [0, 1).

    Measured from the assembled matrix: the phases of the four hopping
    amplitudes are summed counterclockwise around the plaquette whose lower
    left corner is site (n, m), so the gauge normalization is never assumed.
    Wrap plaquettes are meaningful only for a "magnetic-periodic" boundary.
    """
    if L < 2:
        raise ValueError("need at least one plaquette, box side < 2")
    wraps = n + 1 >= L or m + 1 >= L
    if wraps and boundary != "magnetic-periodic":
        raise ValueError(f"plaquette ({n}, {m}) wraps an open boundary")

    def idx(a, b):  # row of site (a, b), coordinates taken mod the side
        return (a % L) * L + (b % L)

    hops = (
        matrix[idx(n + 1, m), idx(n, m)],
        matrix[idx(n + 1, m + 1), idx(n + 1, m)],
        matrix[idx(n, m + 1), idx(n + 1, m + 1)],
        matrix[idx(n, m), idx(n, m + 1)],
    )
    prod = 1.0 + 0.0j
    for amp in hops:
        if abs(amp) < 1e-14:
            raise ValueError(f"missing bond around plaquette ({n}, {m})")
        prod *= amp
    return float((np.angle(prod) / (2.0 * pi)) % 1.0)


def tknn_cherns(p, q):
    """Band Chern numbers of the nearest-neighbour model at flux p/q, odd q.

    From the Diophantine equation r = q s_r + p t_r with |t_r| < q/2 of
    Thouless, Kohmoto, Nightingale and den Nijs (PRL 49, 405 (1982)): for odd
    q each r = 0..q has one such t_r, with t_0 = t_q = 0, and band r (counted
    from 1) has Chern number t_r - t_{r-1}. Even q is excluded because there
    the two central bands touch and t_{q/2} is not unique.
    """
    if q % 2 == 0:
        raise ValueError("the Diophantine rule needs an odd denominator")
    half = q // 2
    t = [
        next(t for t in range(-half, half + 1) if (r - p * t) % q == 0)
        for r in range(q + 1)
    ]
    return [b - a for a, b in zip(t, t[1:])]


def grid_fiber_eigenvalues(family, n1, n2):
    """Eigenvalues of every fiber on the zone grid n1 x n2, shape (n1, n2, q).

    The whole grid k = 2 pi j / n is built in one `family.batch` call and
    every fiber is solved, with no use of the Chambers relation.
    """
    k1 = 2.0 * np.pi * np.arange(n1) / n1
    k2 = 2.0 * np.pi * np.arange(n2) / n2
    return np.linalg.eigvalsh(family.batch(k1, k2))


def dense_eigh(matrix, rank=None):
    """The unsplit solve of a continuum operator, ignoring its coset blocks.

    Sorted eigenvalues of the whole d x d matrix and, with rank r given, the
    d x r eigenvectors of the r lowest; the call shape of
    `continuum.coset_eigh` minus the basis and the potential.
    """
    if rank is None:
        return np.linalg.eigvalsh(matrix)
    w, v = np.linalg.eigh(matrix)
    return w, v[:, :rank]
