"""Independent constructions the tests check the library against.

None of these is used by the library itself: each one builds or measures a
quantity a second way, written out from its definition.
"""

import math
from dataclasses import replace
from math import cos, pi

import numpy as np
from scipy.special import erf as scipy_erf
from scipy.special import eval_genlaguerre

from fluxlab import (
    DefectRow,
    NumericalCheckError,
    RationalFlux,
    check_hermitian,
    coset_count,
    defect_curve,
    fit_slope_through_origin,
    hofstadter_family,
    level_form_factor,
    nagy_intertwiner,
    random_packet,
    separated_cluster,
    torus_basis,
    weyl_translation,
)


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


def plaquette_flux(matrix, L, n=0, m=0):
    """Flux through one plaquette of an L x L box matrix, in flux quanta, in
    [0, 1).

    Measured from the assembled matrix: the phases of the four hopping
    amplitudes are summed counterclockwise around the plaquette whose lower
    left corner is site (n, m), so the gauge normalization is never assumed.
    Site coordinates are taken mod L, so the wrap plaquettes of a
    magnetic-periodic box are read through its wrap bonds, and a plaquette
    with a bond the matrix lacks raises ValueError.
    """
    if L < 2:
        raise ValueError("need at least one plaquette, box side < 2")

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


def site_loop_box(B, L):
    """`lattice.symmetric_gauge_box` filled one site at a time, with its
    phases taken at B as given: the double loop it replaces, kept as its
    oracle. Each bond is added onto the zero matrix, and each wrap bond is
    the product of two numpy complex scalars."""
    h = np.zeros((L * L, L * L), dtype=complex)

    def idx(n, m):
        return (n % L) * L + (m % L)

    for n in range(L):
        for m in range(L):
            # bond (n, m) -> (n+1, m)
            if n + 1 < L:
                h[idx(n, m), idx(n + 1, m)] += np.exp(1j * 2.0 * pi * m * B)
            else:
                h[idx(n, m), idx(n + 1, m)] += np.exp(1j * 2.0 * pi * m * B) * np.exp(
                    1j * 2.0 * pi * B * L * m
                )
            # bond (n, m) -> (n, m+1)
            if m + 1 < L:
                h[idx(n, m), idx(n, m + 1)] += np.exp(-1j * 2.0 * pi * n * B)
            else:
                h[idx(n, m), idx(n, m + 1)] += np.exp(-1j * 2.0 * pi * n * B) * np.exp(
                    -1j * 2.0 * pi * B * L * n
                )
    return h + h.conj().T


def hermitian_deviation(m):
    """max |M - M^dag| over the whole matrix at once, the quantity
    `spectra.check_hermitian` takes block by block."""
    return float(np.max(np.abs(m - m.conj().T)))


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
    return np.linalg.eigvalsh(family.batch(k1[:, None], k2))


def grid_band_quantiles(flux, n, quantiles):
    """(lo, hi, quants) of each band over every fiber of the n x n zone grid.

    Every grid fiber of `hofstadter_family(flux)` is solved
    (`grid_fiber_eigenvalues`), and each band's values are reduced with
    min, max and np.quantile, with no use of the Chambers relation.
    """
    per_band = grid_fiber_eigenvalues(hofstadter_family(flux), n, n).reshape(-1, flux.q)
    return (
        per_band.min(axis=0),
        per_band.max(axis=0),
        np.quantile(per_band, quantiles, axis=0),
    )


def per_flux_band_quantiles(flux, n, quantiles):
    """(lo, hi, quants, solved) of one flux, as `band_quantiles` gave them
    before it took every numerator of a denominator at once.

    The Chambers classes, the s order and the mirror-closed rank set are
    found again for this flux, its rank fibers are built by one
    `hofstadter_family(flux).batch` call and solved by one `eigvalsh`, and
    the quantiles are numpy's lerp written out.
    """
    r = flux.q * np.arange(n) % n
    _, rep, cls = np.unique(
        np.minimum(r, n - r), return_index=True, return_inverse=True
    )
    k = (2.0 * np.pi * np.arange(n) / n)[rep]
    c = np.cos(flux.q * k)[cls]
    order = np.argsort((c[:, None] + c).ravel(), kind="stable")
    last = n * n - 1
    h = last * np.asarray(quantiles, dtype=float)
    ranks = np.concatenate(([0, last], np.floor(h), np.ceil(h))).astype(int)
    ranks = np.array(sorted({*ranks.tolist(), *(last - ranks).tolist()}))
    j1, j2 = np.divmod(order[ranks], n)
    r1, r2 = np.sort([cls[j1], cls[j2]], axis=0)
    solved = np.linalg.eigvalsh(hofstadter_family(flux).batch(k[r1], k[r2]))
    vals = np.sort(solved, axis=0)
    a = vals[np.searchsorted(ranks, np.floor(h))]
    b = vals[np.searchsorted(ranks, np.ceil(h))]
    t = (h - np.floor(h))[:, None]
    quants = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    return vals[0], vals[-1], quants, solved


def corner_bands(flux):
    """exact_bands(flux) from its own batch of the corners (0, 0) and
    (pi/q, pi/q) and its own eigvalsh: band j runs between eigenvalue j at
    the two corners."""
    edge = np.pi / flux.q
    corners = hofstadter_family(flux).batch([0.0, edge], [0.0, edge])
    return np.sort(np.linalg.eigvalsh(corners).T, axis=1)


def dense_term(dim, cols, values):
    """The dim x dim matrix of a permutation with values, held as
    (cols, values): row j holds values[j] in column cols[j], on zeros."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[np.arange(dim), cols] = values
    return mat


def dense_weyl(flux, n, m):
    """`weyl_translation(flux, n, m)` written out as its q x q matrix."""
    return dense_term(flux.q, *weyl_translation(flux, n, m))


def plane_wave_element(basis, K):
    """Matrix of e^{i K . r} in the truncated Landau basis, built whole as
    kron(G(K), tau(K)); `continuum.guiding_bands` builds the same entries
    band by band.

    K = (n, m) is in reciprocal units 2 pi and must be a multiple of
    1 / n_cells. G(K) is the inter-level `level_form_factor` at 2 pi (n, m)
    and tau(K) the guiding translation dense_weyl(1/n_flux, -j1, j2)
    with (j1, j2) = n_cells (n, m). The product is unitary up to the level
    truncation.
    """
    n, m = float(K[0]), float(K[1])
    j1, j2 = round(n * basis.n_cells), round(m * basis.n_cells)
    if abs(n * basis.n_cells - j1) > 1e-9 or abs(m * basis.n_cells - j2) > 1e-9:
        raise ValueError(f"harmonic {K} is not a multiple of 1 / n_cells")
    tau = dense_weyl(RationalFlux(1, basis.n_flux), -j1, j2)
    g = level_form_factor(
        2.0 * np.pi * n, 2.0 * np.pi * m, basis.effective_field, basis.n_levels
    )
    return np.kron(g, tau)


def dense_hamiltonian(basis, potential):
    """The continuum operator built whole as a d x d matrix, ignoring its
    coset blocks: the kinetic ladder kron(diag(level energies), I) plus
    c * plane_wave_element(basis, (n, m)) for every harmonic (n, m, c).
    """
    h = np.kron(
        np.diag(basis.level_energies().astype(complex)), np.eye(basis.n_flux)
    )
    for n, m, c in potential.harmonics:
        h += c * plane_wave_element(basis, (n, m))
    return h


def coset_blocks(basis, potential):
    """The continuum operator as all its g = coset_count(basis, potential)
    dense guiding-centre coset blocks, shape (g, d/g, d/g), real when their
    imaginary part is exactly zero, else complex: the oracle of
    `continuum.guiding_bands` and of the blocks `continuum.sector_blocks`
    scatters from them for the orbit representatives only.

    Coset c holds the indices level * n_flux + j with j = c mod g, at block
    row level * (n_flux/g) + j // g. The kinetic ladder is the diagonal, and
    each harmonic adds c G[a, b] tau[j] at the n_flux entries (j, k[j]) of
    its guiding translation (k, tau) = weyl_translation(1/n_flux, -j1, j2),
    (j1, j2) = n_cells * (n, m), in one scatter. Each block is checked with
    `spectra.check_hermitian`.
    """
    g = coset_count(basis, potential)
    per_level = basis.n_flux // g
    diag = np.arange(basis.dim // g)
    blocks = np.zeros((g, diag.size, diag.size), dtype=complex)
    blocks[:, diag, diag] = np.repeat(basis.level_energies(), per_level)
    first = np.arange(basis.n_levels) * per_level  # each level's first block row
    j = np.arange(basis.n_flux)
    for n, m, c in potential.harmonics:
        j1, j2 = round(n * basis.n_cells), round(m * basis.n_cells)
        k, tau = weyl_translation(RationalFlux(1, basis.n_flux), -j1, j2)
        assert not np.any(j % g != k % g), "entry across guiding-centre cosets"
        form = level_form_factor(
            2.0 * np.pi * n, 2.0 * np.pi * m, basis.effective_field, basis.n_levels
        )
        blocks[j % g, first[:, None, None] + j // g, first[None, :, None] + k // g] += (
            c * (form[:, :, None] * tau))
    for block in blocks:
        check_hermitian(block)
    return np.ascontiguousarray(blocks.real) if not np.any(blocks.imag) else blocks


def inversion_matrix(basis):
    """The inversion S = diag((-1)^n) (x) (j -> -j mod n_flux) as a d x d
    signed permutation in the level-major basis: column level * n_flux + j
    holds (-1)^level in row level * n_flux + (-j mod n_flux)."""
    index = np.arange(basis.dim)
    level, guiding = np.divmod(index, basis.n_flux)
    s = np.zeros((basis.dim, basis.dim))
    s[level * basis.n_flux + (-guiding) % basis.n_flux, index] = (-1.0) ** level
    return s


def c2_deviation(sector, block):
    """max |S H S^T - H| over every entry of a coset block, S the inversion
    on the coset as `sector` holds it, S e_i = sign[i] e_image[i]: entry
    (i, k) of S H S^T is sign[i] sign[k] H[image[i], image[k]]. The dense
    twin of the C2 check `continuum.sector_blocks` reads from the bands."""
    image, sign = sector.image, sector.sign
    inverted = np.outer(sign, sign) * block[np.ix_(image, image)]
    return float(np.max(np.abs(inverted - block), initial=0.0))


def shift_deviation(basis, potential):
    """(h, deviation) of the guiding-shift orbits of the coset blocks, with
    each shift taken as a dense permutation matrix.

    The step a is the least a >= 1 with a j2 = 0 mod n_flux for every
    harmonic's j2 = n_cells m. From each coset r that no earlier orbit
    reached, the shift j -> j + k a, k = 1, 2, ..., carries the full index
    level * n_flux + j of coset r to level * n_flux + (j + k a) mod n_flux;
    the first k that reaches a coset c gives the permutation matrix P with
    P[block row of the image of i, i] = 1. h counts the orbits, and the
    deviation is the largest max |P^T H_c P - H_r| over every c.
    """
    blocks = coset_blocks(basis, potential)
    g, n_flux = len(blocks), basis.n_flux
    j2 = [round(m * basis.n_cells) for _, m, _ in potential.harmonics]
    a = next(a for a in range(1, n_flux + 1) if all(a * j % n_flux == 0 for j in j2))
    level, guiding = np.divmod(np.arange(basis.dim), n_flux)
    coset = guiding % g
    row = np.zeros(basis.dim, dtype=int)
    for c in range(g):
        row[coset == c] = np.arange(np.count_nonzero(coset == c))
    reached, h, worst = set(), 0, 0.0
    for r in range(g):
        if r in reached:
            continue
        reached.add(r)
        h += 1
        mine = np.flatnonzero(coset == r)
        for k in range(1, g + 1):
            image = level[mine] * n_flux + (guiding[mine] + k * a) % n_flux
            c = coset[image[0]]
            if c in reached:
                continue
            reached.add(c)
            p = np.zeros((mine.size, mine.size))
            p[row[image], np.arange(mine.size)] = 1.0
            worst = max(worst, float(np.max(np.abs(p.T @ blocks[c] @ p - blocks[r]))))
    return h, worst


def dense_eigh(matrix, rank=None):
    """The unsplit solve of a continuum operator, ignoring its coset blocks.

    Sorted eigenvalues of the whole d x d matrix and, with rank r given, the
    d x r eigenvectors of the r lowest; `scattered_frame` with the operator
    in place of the basis and the potential. Like `continuum.coset_eigh`, an
    exactly real matrix is solved as its real part.
    """
    if not np.any(matrix.imag):
        matrix = np.ascontiguousarray(matrix.real)
    if rank is None:
        return np.linalg.eigvalsh(matrix)
    w, v = np.linalg.eigh(matrix)
    return w, v[:, :rank]


def scipy_level_form_factor(kx, ky, b, n_levels):
    """The closed form of `continuum.level_form_factor`, with its Laguerre
    values taken from scipy's eval_genlaguerre: entry (n', n) for n' >= n is
    e^{-|kappa|^2 / 2} sqrt(n!/n'!) conj(kappa)^{n'-n} L_n^{(n'-n)}(|kappa|^2),
    kappa = (Kx + i Ky) / sqrt(2b), and G(K)^dag = G(-K) gives the rest.
    Each factor is computed apart, so the oracle is finite only while
    kappa^{n_levels - 1} is.
    """
    kappa = math.sqrt(0.5 / b) * (kx + 1j * ky)
    x = abs(kappa) ** 2
    g = np.zeros((n_levels, n_levels), dtype=complex)
    for hi in range(n_levels):
        for lo in range(hi + 1):
            d = hi - lo
            amp = math.exp(
                -x / 2.0 + 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))
            ) * eval_genlaguerre(lo, d, x)
            g[hi, lo] = amp * np.conj(kappa) ** d
            g[lo, hi] = amp * (-kappa) ** d
    return g


def erf_dos(values, erf, width, bins, bounds):
    """`spectra.dos` with the error function `erf` applied to every entry
    of the grid z = (edge - value) / (width sqrt 2), with no saturation cut.

    Returns (edges, density, inside): inside is the sample's weight within
    the bounds, which density is normalized by, and density is None when it
    is not positive.
    """
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    edges = np.linspace(bounds[0], bounds[1], bins + 1)
    z = (edges[None, :] - vals[:, None]) / (width * np.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    mass = np.sum(cdf[:, 1:] - cdf[:, :-1], axis=0) / vals.size
    total = float(mass.sum())
    if total <= 0:
        return edges, None, total
    return edges, mass / total / (edges[1] - edges[0]), total


def math_erf(z):
    """math.erf at every entry of the array z."""
    return np.vectorize(math.erf, otypes=[float])(z)


def projector_distance(p, q):
    """||P - Q|| for equal-rank projectors closer than 1, given their
    orthonormal d x r frames, as the 2-norm of (I - Q) V_p."""
    resid = p - q @ (q.conj().T @ p)
    return float(np.linalg.norm(resid, 2))


def two_frame_nagy(p, q):
    """Polar factor U of the Sz.-Nagy intertwiner from the d x r frames V_p
    and V_q of two projectors closer than 1: W V_p = V_q U with U = A B^dag
    from the SVD A S B^dag of V_q^dag V_p."""
    a, _, bh = np.linalg.svd(q.conj().T @ p)
    return a @ bh


def scattered_frame(basis, potential, rank):
    """Sorted eigenvalues of the continuum operator and the d x rank frame of
    the eigenvectors of its rank lowest, from one batched eigh of its coset
    blocks (real when exactly real), each eigenvector scattered back to the
    full rows of its coset: level * n_flux + j with j = c mod g."""
    blocks = coset_blocks(basis, potential)
    values, vectors = np.linalg.eigh(blocks)
    g, size = values.shape
    w = values.ravel()
    order = np.argsort(w, kind="stable")
    lowest = order[:rank]
    guiding = np.arange(basis.dim) % basis.n_flux
    frame = np.zeros((basis.dim, rank), dtype=vectors.dtype)
    for c in range(g):
        mine = np.flatnonzero(lowest // size == c)
        frame[np.ix_(np.flatnonzero(guiding % g == c), mine)] = (
            vectors[c][:, lowest[mine] % size])
    return w[order], frame


def unsplit_frame(basis, potential, rank):
    """`scattered_frame` from the unsplit dense solve of the whole d x d
    operator."""
    return dense_eigh(dense_hamiltonian(basis, potential), rank)


def scattered_defect_scaling(
    field_values, potential, times, n_levels, n_cells, seed=7, solve=scattered_frame
):
    """`dynamics.defect_scaling` on whole frames, ignoring its sectors.

    Per field: the sorted eigenvalues and the d x n_flux frame p of the
    lowest eigenvectors from solve(basis, potential, n_flux), its
    ||V^dag V - I||_F <= 1e-10 check, the n_flux x n_flux polar factor of the
    overlap p[:n_flux] with Q, the one-level operator's n_flux x n_flux frame
    from solve on the one-level basis, the packet projected in full
    coordinates, and ||P - Q|| as the 2-norm of p[n_flux:]. Raises what
    defect_scaling raises; a sector holding more or fewer than n_flux/g of
    the lowest eigenvalues shows up as a singular overlap (exit 4).
    """
    times = tuple(float(t) for t in times)
    rows = []
    for b_req in field_values:
        basis = torus_basis(float(b_req), n_levels, n_cells)
        n_flux = basis.n_flux
        w, p = solve(basis, potential, n_flux)
        _, _, separated = separated_cluster(w, basis)
        if not separated:
            nan = float("nan")
            rows.append(DefectRow(float(b_req), basis.field, n_flux, nan, nan, nan,
                                  nan, False))
            continue
        dev = float(np.linalg.norm(p.conj().T @ p - np.eye(n_flux)))
        if dev > 1e-10:
            raise NumericalCheckError(f"frame not orthonormal: {dev:.3e}")
        u = nagy_intertwiner(p[:n_flux])
        w_eff, v_eff = solve(replace(basis, n_levels=1), potential, n_flux)
        psi = random_packet(basis.dim, seed)
        defects = defect_curve(w[:n_flux], p, u, w_eff, v_eff, psi, (0.0,) + times)
        rows.append(
            DefectRow(
                field_requested=float(b_req),
                field=basis.field,
                n_flux=n_flux,
                projector_distance=float(np.linalg.norm(p[n_flux:], 2)),
                defect_zero=float(defects[0]),
                max_defect=float(defects[1:].max()),
                slope=fit_slope_through_origin(times, defects[1:]),
                separated=True,
            )
        )
    return rows
