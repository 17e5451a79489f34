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
magnetic translations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalCheckError
from .lattice import RationalFlux, conjugate_paired, weyl_translation
from .spectra import check_hermitian, hausdorff


@dataclass(frozen=True)
class FourierPotential:
    """Real potential V(x, y) = sum_h c_h e^{i 2 pi (n x + m y)} on the unit cell.

    Harmonics are (n, m, c) with n, m counted in reciprocal units 2 pi.
    Reality requires the partner (-n, -m, conj(c)) for every harmonic.
    They are kept sorted by (n, |m|, m), so that (n, -m) and (n, m) are
    neighbours: for a potential even in x their terms are complex conjugates,
    and adding them one after the other onto a real entry leaves its
    imaginary part exactly zero (see coset_blocks).
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

    field is the B of the Hamiltonian above; the physical field strength
    (curl of the gauge potential) is effective_field = 2B.
    """

    field: float
    n_flux: int
    n_levels: int
    n_cells: int

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
    return LandauBasisSpec(
        field=math.pi * n_flux / (n_cells * n_cells),
        n_flux=int(n_flux),
        n_levels=int(n_levels),
        n_cells=int(n_cells),
    )


def _genlaguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x) for integer n >= 0, by
    the three-term recurrence
    L_{k+1} = ((2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}) / (k + 1)."""
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def level_form_factor(kx: float, ky: float, b: float, n_levels: int) -> np.ndarray:
    """Matrix of e^{i K . (cyclotron coordinate)} between Landau levels.

    With kappa = l (Kx + i Ky) / sqrt(2), entry (n', n) for n' >= n is
    e^{-|kappa|^2 / 2} sqrt(n!/n'!) conj(kappa)^{n'-n} L_n^{(n'-n)}(|kappa|^2),
    and the n' < n entries follow from G(K)^dag = G(-K). The diagonal is the
    familiar e^{-|K|^2/(4b)} L_n(|K|^2/(2b)).
    """
    ell2 = 1.0 / b
    kappa = math.sqrt(ell2 / 2.0) * (kx + 1j * ky)
    x = abs(kappa) ** 2
    pref = math.exp(-x / 2.0)
    g = np.zeros((n_levels, n_levels), dtype=complex)
    for n_hi in range(n_levels):
        for n_lo in range(n_hi + 1):
            d = n_hi - n_lo
            amp = math.exp(
                0.5 * (math.lgamma(n_lo + 1) - math.lgamma(n_hi + 1))
            ) * _genlaguerre(n_lo, d, x)
            g[n_lo, n_hi] = pref * amp * (-kappa) ** d
            g[n_hi, n_lo] = pref * amp * np.conj(kappa) ** d
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


def _harmonic_translation(basis: LandauBasisSpec, n: float, m: float) -> np.ndarray:
    """Projective torus translation tau(j1, j2) carried by a cell-reciprocal
    harmonic, with (j1, j2) = n_cells * (n, m).

    tau(j1, j2) = weyl_translation(1/n_flux, -j1, j2), that is
    e^{i pi j1 j2 / n_flux} times j1 cyclic up-shifts and j2 clocks; the
    symmetrization phase pairs with the form-factor phase so that full
    plane-wave elements compose exactly: E(K) E(K') = E(K + K').
    """
    j1, j2 = _harmonic_shift(basis, n, m)
    return weyl_translation(RationalFlux(1, basis.n_flux), -j1, j2)


def next_level_coupling(basis: LandauBasisSpec, potential: FourierPotential) -> float:
    """Largest potential matrix element from the top retained level into the
    first dropped one; the standard truncation-error proxy."""
    b = basis.effective_field
    top = basis.n_levels
    worst = 0.0
    for n, m, c in potential.harmonics:
        kx = 2.0 * np.pi * n
        ky = 2.0 * np.pi * m
        g = level_form_factor(kx, ky, b, top + 1)
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


def coset_blocks(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """The continuum operator as its g = coset_count(basis, potential)
    guiding-centre coset blocks, shape (g, d/g, d/g), real when their
    imaginary part is exactly zero, else complex; the d x d operator is never
    built (the magnetic translation group: J. Zak, Phys. Rev. 134, A1602
    (1964)). For a potential even in x, c(n, m) = c(-n, m), complex
    conjugation combined with x -> -x is an antiunitary symmetry that acts as
    plain conjugation in the level-major Landau basis (M. Robnik and M. V.
    Berry, J. Phys. A 19, 669 (1986)), so the blocks are exactly real, and are
    solved as real symmetric matrices. The real copy is made after the
    scatter's n_flux x n_flux translations are released.
    """
    blocks = _complex_blocks(basis, potential)
    return np.ascontiguousarray(blocks.real) if not np.any(blocks.imag) else blocks


def _complex_blocks(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """coset_blocks before the real switch. Coset c holds the indices
    level * n_flux + j with j = c mod g, at block row level * (n_flux/g) +
    j // g. The kinetic ladder is the diagonal, and each harmonic
    c e^{iK.r} = c G(K) (x) tau(K) adds c G[a, b] tau[j, k] at the nonzero
    entries of tau only, in one scatter. Those must join indices of one coset
    (j = k mod g): the zeros between cosets are structural, not roundoff, so
    a nonzero (or NaN) entry across raises NumericalCheckError, with no
    tolerance. Each block is checked Hermitian.
    """
    g = coset_count(basis, potential)
    per_level = basis.n_flux // g
    diag = np.arange(basis.dim // g)
    blocks = np.zeros((g, diag.size, diag.size), dtype=complex)
    blocks[:, diag, diag] = np.repeat(basis.level_energies(), per_level)
    first = np.arange(basis.n_levels) * per_level  # each level's first block row
    for n, m, c in potential.harmonics:
        tau = _harmonic_translation(basis, n, m)
        j, k = np.nonzero(tau)
        leak = np.count_nonzero(j % g != k % g)
        if leak:
            raise NumericalCheckError(
                f"operator at B = {basis.field:.12g} has nonzero entries "
                f"between its {g} guiding-centre cosets: harmonic ({n:g}, {m:g}) "
                f"joins {leak} guiding pairs across them"
            )
        form = level_form_factor(
            2.0 * np.pi * n, 2.0 * np.pi * m, basis.effective_field, basis.n_levels
        )
        blocks[j % g, first[:, None, None] + j // g, first[None, :, None] + k // g] += (
            c * (form[:, :, None] * tau[j, k]))
    for block in blocks:
        check_hermitian(block)
    return blocks


def coset_eigh(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """Sorted eigenvalues of the continuum operator, from one batched solve
    of its coset_blocks(basis, potential), which all have the same size and
    are real when they are exactly real."""
    return np.sort(np.linalg.eigvalsh(coset_blocks(basis, potential)), axis=None)


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
    whose coset blocks are the leading n_flux/g rows and columns of the full
    blocks, bit for bit, so one coset_blocks build per field serves both
    solves. The distance column is the Hausdorff distance between the lowest
    n_flux eigenvalues and the spectrum of that one-level operator; rows
    whose lowest cluster is not separated (separated_cluster) are flagged
    rather than failed.
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
    blocks = coset_blocks(basis, potential)
    w, gap, separated = separated_cluster(np.linalg.eigvalsh(blocks), basis)
    distance = float("nan")
    if separated:
        per_level = basis.n_flux // len(blocks)
        one_level = np.linalg.eigvalsh(blocks[:, :per_level, :per_level])
        distance = hausdorff(w[: basis.n_flux], np.sort(one_level, axis=None))
    return StrongFieldRow(
        field_requested=b_req,
        field=basis.field,
        n_flux=basis.n_flux,
        cluster_gap=gap,
        distance=distance,
        coupling_next_level=next_level_coupling(basis, potential),
        separated=separated,
    )
