"""Landau-level matrix representation of a charged particle on a magnetic torus.

The Hamiltonian is (-i d/dx - B y)^2 + (-i d/dy + B x)^2 + V(x, y), whose
vector potential has curl 2B. Every Landau-level formula below therefore uses
the effective field strength b = 2B: level energies b(2n + 1), magnetic
length l = 1/sqrt(b). The factor of two is easy to lose, so it is funneled
through LandauBasisSpec.effective_field and never rederived inline.

Basis layout: the torus is n_cells x n_cells copies of the unit potential
cell, carries n_flux quanta of effective flux (b * area = 2 pi n_flux), and
states are indexed level-major: index = level * n_flux + guiding, with the
guiding degree of freedom carrying an n_flux-dimensional clock/shift pair of
magnetic translations. Those translations make the operator a short sum of
guiding-offset bands (guiding_bands) and split it into guiding-centre
cosets, of which one per guiding-shift orbit is built dense and solved
(orbit_rows), and for an even potential the inversion r -> -r halves the
cosets it maps to themselves (Sector, sector_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .lattice import RationalFlux, conjugate_paired, weyl_translation
from .spectra import hausdorff


@dataclass(frozen=True)
class FourierPotential:
    """Real potential V(x, y) = sum_h c_h e^{i 2 pi (n x + m y)} on the unit cell.

    Harmonics are (n, m, c) with n, m counted in reciprocal units 2 pi.
    Reality requires the partner (-n, -m, conj(c)) for every harmonic.
    They are kept sorted by (n, |m|, m), so that (n, -m) and (n, m) are
    neighbours: for a potential even in x their terms are complex conjugates,
    and adding them one after the other onto a real entry leaves its
    imaginary part exactly zero (see guiding_bands).
    """

    harmonics: tuple

    def __init__(self, harmonics):
        entries = []
        for n, m, c in harmonics:
            entries.append((float(n), float(m), complex(c)))
        entries.sort(key=lambda h: (h[0], abs(h[1]), h[1]))
        object.__setattr__(self, "harmonics", tuple(entries))
        if not conjugate_paired(self.harmonics):
            raise ValueError(
                "potential is not real: every harmonic (n, m, c) needs the "
                "partner (-n, -m, conj(c))"
            )

    @classmethod
    def cosine_xy(cls, amplitude: float = 1.0):
        """2 a cos(2 pi x) + 2 a cos(2 pi y)."""
        a = float(amplitude)
        if a == 0.0:
            return cls([])
        return cls([(1, 0, a), (-1, 0, a), (0, 1, a), (0, -1, a)])


@dataclass(frozen=True)
class LandauBasisSpec:
    """Validated magnetic-torus basis bookkeeping.

    field is the B of the Hamiltonian above, pi n_flux / n_cells^2 by the
    flux quantization (torus_basis); the physical field strength (curl of
    the gauge potential) is effective_field = 2B.
    """

    n_flux: int
    n_levels: int
    n_cells: int

    @property
    def field(self) -> float:
        return math.pi * self.n_flux / (self.n_cells * self.n_cells)

    @property
    def effective_field(self) -> float:
        return 2.0 * self.field

    @property
    def dim(self) -> int:
        return self.n_levels * self.n_flux

    def level_energies(self) -> np.ndarray:
        b = self.effective_field
        return b * (2.0 * np.arange(self.n_levels) + 1.0)


def torus_basis(B: float, n_levels: int, n_cells: int) -> LandauBasisSpec:
    """Basis on the n_cells x n_cells torus at the feasible field nearest B.

    Magnetic translations commute only at integer flux (J. Zak, Phys. Rev.
    134, A1602 (1964)), so 2B * n_cells^2 = 2 pi * n_flux: n_flux is B's
    rounded flux-quantum count, forced to at least one, and the field used
    is pi * n_flux / n_cells^2.
    """
    if B <= 0:
        raise ConfigError(f"field parameter must be > 0, got {B}")
    if n_levels < 1:
        raise ConfigError(f"n_levels must be >= 1, got {n_levels}")
    if n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
    quanta = B * n_cells * n_cells / math.pi
    if not math.isfinite(quanta):
        raise ConfigError(
            f"field parameter {B} on {n_cells} cells per side gives a "
            "non-finite flux-quantum count"
        )
    n_flux = max(1, round(quanta))
    return LandauBasisSpec(n_flux, int(n_levels), int(n_cells))


def level_form_factor(kx: float, ky: float, b: float, n_levels: int) -> np.ndarray:
    """Matrix of e^{i K . (cyclotron coordinate)} between Landau levels.

    With kappa = l (Kx + i Ky) / sqrt(2), x = |kappa|^2 and u = kappa/|kappa|,
    entry (n + d, n) is A[n, d] conj(u)^d and entry (n, n + d) is
    A[n, d] (-u)^d, where A[n, d] = e^{-x/2} |kappa|^d sqrt(n!/(n+d)!)
    L_n^{(d)}(x); the diagonal is the familiar e^{-|K|^2/(4b)} L_n(|K|^2/(2b)).
    G is a block of the unitary displacement operator (K. E. Cahill and R. J.
    Glauber, Phys. Rev. 177, 1857 (1969)), so |A| <= 1. A is therefore carried
    directly, over n and for every d at once, by the Laguerre three-term
    recurrence normalized to it (M. Abramowitz and I. A. Stegun, 22.7), and
    no value on the way can overflow. The powers of the unit u are repeated
    products, so a K on an axis keeps its exactly real or imaginary entries.
    """
    kappa = math.sqrt(0.5 / b) * (kx + 1j * ky)
    x = abs(kappa) ** 2
    d = np.arange(n_levels)
    a = np.zeros((n_levels, n_levels))
    if x == 0.0:
        u = 1.0
        a[0, 0] = 1.0
    else:
        u = kappa / abs(kappa)
        lgamma = np.array([math.lgamma(k + 1) for k in d])
        a[0] = np.exp(d * math.log(abs(kappa)) - x / 2.0 - 0.5 * lgamma)
    for k in range(n_levels - 1):
        a[k + 1] = (
            (2 * k + 1 + d - x) * a[k] - np.sqrt(k * (k + d)) * a[k - 1]
        ) / np.sqrt((k + 1) * (k + 1 + d))
    hi, lo = np.tril_indices(n_levels)
    amp = a[lo, hi - lo]
    g = np.empty((n_levels, n_levels), dtype=complex)
    g[hi, lo] = amp * np.cumprod([1.0] + [np.conj(u)] * (n_levels - 1))[hi - lo]
    g[lo, hi] = amp * np.cumprod([1.0] + [-u] * (n_levels - 1))[hi - lo]
    return g


def _harmonic_shift(basis: LandauBasisSpec, n: float, m: float) -> tuple[int, int]:
    """(j1, j2) = n_cells * (n, m) of a cell-reciprocal harmonic, checked to
    be integers."""
    j1f = n * basis.n_cells
    j2f = m * basis.n_cells
    j1, j2 = round(j1f), round(j2f)
    if abs(j1f - j1) > 1e-9 or abs(j2f - j2) > 1e-9:
        raise ConfigError(
            f"harmonic ({n}, {m}) is incompatible with the torus: "
            f"K * side / (2 pi) = ({j1f:.6g}, {j2f:.6g}) must be integers"
        )
    return j1, j2


def next_level_coupling(basis: LandauBasisSpec, potential: FourierPotential) -> float:
    """Largest potential matrix element from the top retained level into the
    first dropped one; the standard truncation-error proxy."""
    top = basis.n_levels
    worst = 0.0
    for n, m, c in potential.harmonics:
        g = level_form_factor(
            2.0 * np.pi * n, 2.0 * np.pi * m, basis.effective_field, top + 1)
        worst = max(worst, abs(c) * abs(g[top, top - 1]))
    return worst


def coset_count(basis: LandauBasisSpec, potential: FourierPotential) -> int:
    """Number g of guiding-centre cosets the operator splits into.

    Each harmonic's guiding translation shifts the guiding index j by its
    j1 = n_cells * n, and the clocks and the kinetic ladder are diagonal, so
    H couples j only within the residue classes mod
    g = gcd(n_flux, every harmonic's j1). A fractional harmonic with j1 = 1
    gives g = 1; a potential with no harmonics gives g = n_flux.
    """
    g = basis.n_flux
    for n, m, _ in potential.harmonics:
        g = math.gcd(g, _harmonic_shift(basis, n, m)[0])
    return g


def guiding_bands(basis: LandauBasisSpec, potential: FourierPotential) -> dict:
    """{o: V_o}: the continuum operator as complex (n_levels, n_levels,
    n_flux) guiding-offset bands, H[(a, j), (b, (j + o) mod n_flux)] =
    V_o[a, b, j] (J. Zak, Phys. Rev. 134, A1602 (1964); J. Bellissard, A. van
    Elst and H. Schulz-Baldes, J. Math. Phys. 35, 5373 (1994)). Band 0 holds
    the kinetic ladder; each harmonic c G(K) (x) tau(K) adds c G[a, b] tau[j]
    onto band o = -j1 mod n_flux, (k, tau) = weyl_translation(1/n_flux, -j1,
    j2), (j1, j2) = n_cells (n, m), k[j] = j + o, whose Weyl phase pairs with
    G's so that E(K) E(K') = E(K + K'). An entry across guiding-centre cosets
    (j != k mod coset_count) raises NumericalCheckError: they are structural.
    """
    g = coset_count(basis, potential)
    ladder = np.diag(basis.level_energies()).astype(complex)
    bands = {0: np.repeat(ladder[:, :, None], basis.n_flux, 2)}
    j = np.arange(basis.n_flux)
    for n, m, c in potential.harmonics:
        j1, j2 = _harmonic_shift(basis, n, m)
        k, tau = weyl_translation(RationalFlux(1, basis.n_flux), -j1, j2)
        leak = np.count_nonzero(j % g != k % g)
        if leak:
            raise NumericalCheckError(
                f"operator at B = {basis.field:.12g} has nonzero entries "
                f"between its {g} guiding-centre cosets: harmonic ({n:g}, {m:g}) "
                f"joins {leak} guiding pairs across them"
            )
        form = level_form_factor(
            2.0 * np.pi * n, 2.0 * np.pi * m, basis.effective_field, basis.n_levels)
        o = -j1 % basis.n_flux
        bands[o] = bands.get(o, 0) + c * (form[:, :, None] * tau)
    return bands


# Bound on both deviations sector_blocks checks on the bands, the inversion's
# and the guiding shift's, in units of eps * max |H| of the representative
# coset. With the default cosine potential the Weyl phases leave 0.6 to 1.6
# of them in the C2 deviation (B = 1 to 320). A phase's rounding grows with
# its angle, up to 2 pi n_cells for a cosine harmonic, so at large amplitudes
# the C2 deviation reaches about 6.4 n_cells units: 1024 covers tori of up
# to about 150 cells. The shift's stayed within 29 (B = 1 to 80, 2 to 8
# cells, amplitude <= 300).
C2_DEVIATION_ULPS = 1024


def inversion_even(potential: FourierPotential) -> bool:
    """True when V(-r) = V(r): c(-n, -m) == c(n, m) bit for bit for every
    harmonic, repeated (n, m) summed in order. The inversion split is decided
    from the harmonics alone, never inferred from the matrix."""
    table = {}
    for n, m, c in potential.harmonics:
        table[(n, m)] = table.get((n, m), 0.0) + c
    return all(table.get((-n, -m)) == c for (n, m), c in table.items())


def _level_parity(n_levels: int) -> np.ndarray:
    """(-1)^n for each Landau level n: the inversion r -> -r acts on a
    level's cyclotron part by that sign."""
    return 1.0 - 2.0 * (np.arange(n_levels) % 2)


@dataclass(frozen=True, eq=False)
class Sector:
    """The basis of one diagonal block of H: a whole coset or one half of it.

    The guiding-centre cosets split the operator (sector_blocks). For an
    inversion_even potential, the inversion S = diag((-1)^n) (x) (j -> -j mod
    n_flux) also commutes with H, with the lowest-level projector Q and with
    H_eff. S maps coset c to coset -c mod g. A coset it maps to another one
    stays whole (parity 0). A coset it maps to itself, c = 0 or c = g/2, splits
    into its S = +1 and S = -1 halves (parity 1 and -1).

    On such a coset's level-major rows S is a signed permutation and an
    involution: S e_i = sign[i] e_image[i], with sign[i] = (-1)^n at level n.
    A row it fixes is an S eigenvector of sign (-1)^n, and any other row r
    gives (e_r + parity sign[r] e_image[r]) / sqrt 2. `rows` names the half's
    basis vectors by their r: level-major, each level's fixed rows of sign
    `parity` first, then its rows r < image[r] ascending, so Q restricted to
    the sector is its leading `rank` rows. A whole sector's rows are all of
    its coset's, with no image or sign.
    """

    coset: int
    parity: int
    rank: int
    rows: np.ndarray
    image: np.ndarray = None
    sign: np.ndarray = None

    @property
    def dim(self) -> int:
        return self.rows.size

    def fold(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """U^T x along `axis`, where U's orthonormal real columns are the
        sector's basis in its coset's level-major coordinates. A packet folds
        along its one axis, and fold(fold(block, 1), 0) is the sector's block
        of a coset block. A fixed row is (x + x) / 2, which is exact."""
        if not self.parity:
            return x
        shape = (-1,) + (1,) * (x.ndim - 1 - axis % x.ndim)
        pair = self.image[self.rows]
        y = np.take(x, pair, axis)
        y *= (self.parity * self.sign[self.rows]).reshape(shape)
        y += np.take(x, self.rows, axis)
        y *= np.where(pair == self.rows, 0.5, math.sqrt(0.5)).reshape(shape)
        return y

    def describe(self) -> str:
        half = {0: "whole", 1: "S = +1", -1: "S = -1"}[self.parity]
        return f"coset {self.coset}, {half}"


def _may_overflow(basis: LandauBasisSpec, potential: FourierPotential) -> bool:
    """True when a sum of four entries of H, each at most the top level
    energy plus sum |c| in magnitude, could overflow."""
    top = basis.level_energies()[-1] + sum(abs(c) for *_, c in potential.harmonics)
    return not 4.0 * float(top) < np.finfo(float).max


def sector_plan(basis: LandauBasisSpec, potential: FourierPotential) -> list:
    """The Sector list of the operator on basis, from the config alone: each
    coset c < coset_count(basis, potential), split into its two halves when
    the potential is inversion_even and 2c = 0 mod g, else whole. Empty
    halves are left out.

    An operator whose fold could overflow (_may_overflow) is left whole, so
    that its solve still reports its non-finite eigenvalues.
    """
    g = coset_count(basis, potential)
    per_level = basis.n_flux // g
    even = inversion_even(potential) and not _may_overflow(basis, potential)
    index = np.arange(basis.n_levels * per_level)
    level, t = np.divmod(index, per_level)
    sign = _level_parity(basis.n_levels)[level]
    sectors = []
    for c in range(g):
        if not even or 2 * c % g:
            sectors.append(Sector(c, 0, per_level, index))
            continue
        # S sends guiding row t of coset c to (-t - 2c/g) mod per_level
        image = level * per_level + (-t - 2 * c // g) % per_level
        order = np.lexsort((image != index, level))  # each level's fixed rows first
        for parity in (1, -1):
            keep = (index < image) | ((index == image) & (parity * sign > 0))
            rows = order[keep[order]]
            if rows.size:
                rank = int(np.count_nonzero(rows < per_level))
                sectors.append(Sector(c, parity, rank, rows, image, sign))
    return sectors


def orbit_rows(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """Row maps (g/h, d/g) of the guiding-shift orbits, from the config alone.

    The shift j -> j + a, a = n_flux / gcd(n_flux, every harmonic's j2),
    multiplies each clock phase by e^{2 pi i j2 a / n_flux} = 1, so it
    commutes with H and maps coset c onto c + a mod g: the g cosets fall into
    h = gcd(a, g) orbits c mod h. Coset r + m h is H_c[rows[m][i],
    rows[m][k]] = H_r[i, k], rows[m] the shift by k a = m h mod g, which
    sends row t of each level to (t + k a // g) mod n_flux/g. An operator
    that may overflow (_may_overflow) keeps a = n_flux: one coset per orbit.
    """
    g = coset_count(basis, potential)
    a = basis.n_flux
    if not _may_overflow(basis, potential):
        a //= math.gcd(a, *(_harmonic_shift(basis, n, m)[1]
                            for n, m, _ in potential.harmonics))
    h = math.gcd(a, g)
    per_level = basis.n_flux // g
    ka = np.arange(g // h) * a
    steps = np.empty_like(ka)
    steps[ka % g // h] = ka // g
    level, t = np.divmod(np.arange(basis.n_levels * per_level), per_level)
    return level * per_level + (t + steps[:, None]) % per_level


def _checked_deviation(basis: LandauBasisSpec, dev: float, scale: float, broken: str):
    """float(dev), raising NumericalCheckError naming what is `broken` unless
    dev is within C2_DEVIATION_ULPS * eps * scale (a NaN or inf fails)."""
    bound = C2_DEVIATION_ULPS * np.finfo(float).eps * float(scale)
    if not dev <= bound < math.inf:
        raise NumericalCheckError(
            f"operator at B = {basis.field:.12g} breaks its {broken} = {dev:.3e} "
            f"> {C2_DEVIATION_ULPS} eps max |H| = {bound:.3e}"
        )
    return float(dev)


def _mirror_deviations(bands: dict, g: int, mirror) -> np.ndarray:
    """max |V_o - mirror(V_-o, o)| of each of the g cosets (guiding j in coset
    j mod g) over the guiding_bands V, an absent V_-o counting as 0; a NaN
    stays. mirror(V_-o, o) is band o of the mirrored operator."""
    return np.max([  # each coset's entries copied into one row: a strided max is slow
        np.abs(v - mirror(bands.get(-o % v.shape[2], np.zeros_like(v)), o))
        .reshape(-1, g).T.copy().max(1) for o, v in bands.items()], 0)


def sector_blocks(basis: LandauBasisSpec, potential: FourierPotential):
    """(stacks, hermitian_deviation, c2_deviation, shift_deviation): the
    sector blocks of the orbit representatives 0..h-1 (orbit_rows), the only
    cosets built dense, scattered from the guiding_bands; coset c holds the
    indices level * n_flux + j, j = c mod g, at block row level * (n_flux/g)
    + j // g. They are real when no band has an imaginary part (every
    potential even in x), then solved as real symmetric matrices, else complex.

    stacks holds one (sectors, blocks, copies) triple per block size and rank,
    in order of first appearance in sector_plan: blocks has shape
    (len(sectors), dim, dim), every sector in it has rank sectors[0].rank,
    and each of its eigenvalues is copies = g/h (the orbit size) of H's. Each
    half is the fold of its coset block, so the solve sees the part of H that
    commutes with S. Every check reads the bands (_mirror_deviations) before
    any block is built: each coset's max |H - H^dag| must be at most 1e-12,
    else NumericalCheckError gives the first one that is not; then each split
    representative's C2 deviation max |S H S^T - H| and each other coset's
    shift deviation is checked (_checked_deviation). Each returned is the
    largest of its kind.
    """
    rows = orbit_rows(basis, potential)
    bands = guiding_bands(basis, potential)
    n_flux, g = basis.n_flux, basis.dim // rows.shape[1]
    h, per_level = g // len(rows), n_flux // g
    hermitian = _mirror_deviations(  # H^dag's band o: conj V_-o[b, a, j + o]
        bands, g, lambda w, o: np.roll(w, -o, 2).transpose(1, 0, 2).conj())
    bad = np.flatnonzero(~(hermitian <= 1e-12))
    if bad.size:
        raise NumericalCheckError(
            f"matrix is not Hermitian: max |M - M^dag| = {hermitian[bad[0]]:.3e}")
    scale = _mirror_deviations(bands, g, lambda w, o: 0.0)  # max |H| of each coset
    parity = _level_parity(basis.n_levels)[:, None, None]
    inverted = _mirror_deviations(  # S H S^T's band o: (-1)^(a+b) V_-o[a, b, -j]
        bands, g, lambda w, o: parity * parity[:, 0] * np.roll(w[:, :, ::-1], 1, 2))
    sectors = [s for s in sector_plan(basis, potential) if s.coset < h]
    c2 = max((_checked_deviation(basis, inverted[c], scale[c], f"inversion symmetry in "
                                 f"coset {c}: C2 deviation max |S H S^T - H|")
              for c in sorted({s.coset for s in sectors if s.parity})), default=0.0)
    # guiding[m, r]: the rows of coset r + m h that rows[m] maps r's onto
    guiding = np.arange(g).reshape(-1, h)[:, :, None] + g * rows[:, None, :per_level]
    shift = np.max([np.abs(v[:, :, guiding[1:]] - v[:, :, guiding[:1]]).max((0, 1, 4))
                    for v in bands.values()], 0)
    shift = max((_checked_deviation(
        basis, dev, scale[c % h], f"guiding shift symmetry in coset {c}: "
        f"shift deviation max |H_c[rows, rows] - H_r| from coset {c % h}")
        for c, dev in enumerate(shift.ravel(), h)), default=0.0)
    hermitian = float(hermitian.max())
    real = not any(np.any(v.imag) for v in bands.values())
    blocks = np.zeros((h,) + rows.shape[1:] * 2, dtype=float if real else complex)
    index = np.arange(rows.shape[1]).reshape(basis.n_levels, per_level)
    for o, v in bands.items():  # band o joins row t of each level to row t + o/g
        blocks[:, index[:, None], np.roll(index, -(o // g), 1)] = np.moveaxis(
            (v.real if real else v)[:, :, guiding[0]], 2, 0)
    if not any(s.parity for s in sectors):
        return [(tuple(sectors), blocks, len(rows))], hermitian, c2, shift
    groups = {}
    for s in sectors:
        groups.setdefault((s.dim, s.rank), []).append(s)
    stacks = [
        (tuple(group), np.stack([s.fold(s.fold(blocks[s.coset], 1), 0) for s in group]),
         len(rows))
        for group in groups.values()
    ]
    return stacks, hermitian, c2, shift


def coset_eigh(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """Sorted eigenvalues of the continuum operator, from one batched solve
    per block size and rank of its sector_blocks(basis, potential), each
    repeated once per orbit member, real when they are exactly real."""
    stacks, *_ = sector_blocks(basis, potential)
    return np.sort(np.concatenate(
        [np.tile(np.linalg.eigvalsh(b).ravel(), n) for _, b, n in stacks]))


SEPARATION_TOL = 1e-6


def separated_cluster(values: np.ndarray, basis: LandauBasisSpec):
    """(w, gap, separated) of the eigenvalues of the operator on basis, given
    per coset block or flat: w sorted, the gap above its lowest n_flux (inf
    when w holds only that cluster), and gap > SEPARATION_TOL. Non-finite
    eigenvalues raise NumericalCheckError, not an unseparated cluster."""
    w = np.sort(values, axis=None)
    if not np.all(np.isfinite(w)):
        raise NumericalCheckError(
            f"operator at B = {basis.field:.12g} has non-finite eigenvalues"
        )
    n_flux = basis.n_flux
    gap = float(w[n_flux] - w[n_flux - 1]) if len(w) > n_flux else float("inf")
    return w, gap, gap > SEPARATION_TOL


@dataclass(frozen=True)
class StrongFieldRow:
    """One line of the strong-field comparison table."""

    field_requested: float
    field: float
    n_flux: int
    cluster_gap: float
    distance: float
    coupling_next_level: float
    separated: bool


def strong_field_report(
    field_values,
    potential: FourierPotential,
    n_levels: int = 6,
    n_cells: int = 4,
) -> list[StrongFieldRow]:
    """Compare lowest-cluster spectra of the full operator against the
    lowest-level compression, one row per requested field value.

    Each requested B is snapped to the nearest feasible value on the fixed
    n_cells x n_cells torus (the row records both). In the level-major basis
    the lowest-level compression P H P is the same operator on one level,
    whose sector blocks are the leading rank x rank corners of the full
    ones, so one sector_blocks build per field serves both solves, of the
    orbit representatives only. The distance column is the Hausdorff
    distance between the lowest n_flux eigenvalues and the spectrum of that
    one-level operator; rows whose lowest cluster is not separated
    (separated_cluster) are flagged rather than failed.
    """
    return [
        _strong_field_row(
            float(b_req), torus_basis(float(b_req), n_levels, n_cells), potential
        )
        for b_req in field_values
    ]


def _strong_field_row(b_req, basis, potential) -> StrongFieldRow:
    """strong_field_report's row for one field; the field's blocks are
    released on return, before the next field is built."""
    stacks, *_ = sector_blocks(basis, potential)
    w, gap, separated = separated_cluster(
        np.concatenate([np.tile(np.linalg.eigvalsh(b).ravel(), n)
                        for _, b, n in stacks]), basis
    )
    distance = float("nan")
    if separated:
        one_level = [
            np.tile(np.linalg.eigvalsh(blocks[:, :r, :r]).ravel(), n)
            for sectors, blocks, n in stacks for r in [sectors[0].rank] if r
        ]
        distance = hausdorff(w[: basis.n_flux], np.sort(np.concatenate(one_level)))
    return StrongFieldRow(
        field_requested=b_req,
        field=basis.field,
        n_flux=basis.n_flux,
        cluster_gap=gap,
        distance=distance,
        coupling_next_level=next_level_coupling(basis, potential),
        separated=separated,
    )
