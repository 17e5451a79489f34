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
from scipy.special import eval_genlaguerre

from .errors import ConfigError, NumericalCheckError
from .lattice import RationalFlux, conjugate_paired, weyl_translation
from .spectra import check_hermitian, hausdorff


@dataclass(frozen=True)
class FourierPotential:
    """Real potential V(x, y) = sum_h c_h e^{i 2 pi (n x + m y)} on the unit cell.

    Harmonics are (n, m, c) with n, m counted in reciprocal units 2 pi.
    Reality requires the partner (-n, -m, conj(c)) for every harmonic.
    """

    harmonics: tuple

    def __init__(self, harmonics):
        entries = []
        for n, m, c in harmonics:
            entries.append((float(n), float(m), complex(c)))
        entries.sort(key=lambda h: (h[0], h[1]))
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
        for n_lo in range(n_levels):
            d = n_hi - n_lo
            if d >= 0:
                amp = math.exp(
                    0.5 * (math.lgamma(n_lo + 1) - math.lgamma(n_hi + 1))
                ) * eval_genlaguerre(n_lo, d, x)
                g[n_hi, n_lo] = pref * amp * np.conj(kappa) ** d
            else:
                amp = math.exp(
                    0.5 * (math.lgamma(n_hi + 1) - math.lgamma(n_lo + 1))
                ) * eval_genlaguerre(n_hi, -d, x)
                g[n_hi, n_lo] = pref * amp * (-kappa) ** (-d)
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


def plane_wave_element(basis: LandauBasisSpec, K) -> np.ndarray:
    """Matrix of e^{i K . r} in the truncated Landau basis.

    K is an (n, m) pair in reciprocal units 2 pi (fractions allowed as long
    as they are multiples of 1 / n_cells, the torus reciprocal step).
    The result factorizes as kron(inter-level form factor, guiding
    translation); it is unitary up to the level truncation.
    """
    n, m = float(K[0]), float(K[1])
    tau = _harmonic_translation(basis, n, m)
    kx = 2.0 * np.pi * n
    ky = 2.0 * np.pi * m
    g = level_form_factor(kx, ky, basis.effective_field, basis.n_levels)
    return np.kron(g, tau)


@dataclass(frozen=True)
class ContinuumHamiltonian:
    """Truncated magnetic Schroedinger operator and its basis metadata."""

    basis: LandauBasisSpec
    matrix: np.ndarray


def continuum_hamiltonian(
    basis: LandauBasisSpec, potential: FourierPotential
) -> ContinuumHamiltonian:
    """Kinetic Landau ladder plus the potential in plane-wave elements."""
    h = np.kron(
        np.diag(basis.level_energies().astype(complex)), np.eye(basis.n_flux)
    )
    for n, m, c in potential.harmonics:
        h += c * plane_wave_element(basis, (n, m))
    check_hermitian(h)
    return ContinuumHamiltonian(basis=basis, matrix=h)


def lll_effective(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """Compression of the potential to the lowest level: sum of
    c_K e^{-|K|^2/(4b)} tau(K) on the guiding space.

    By construction this equals the lowest-level diagonal block of
    continuum_hamiltonian(basis, V) minus the kinetic ladder, exactly; the
    tests pin that identity down to roundoff.
    """
    b = basis.effective_field
    out = np.zeros((basis.n_flux, basis.n_flux), dtype=complex)
    for n, m, c in potential.harmonics:
        k_sq = (2.0 * np.pi) ** 2 * (n * n + m * m)
        out += c * math.exp(-k_sq / (4.0 * b)) * _harmonic_translation(basis, n, m)
    check_hermitian(out)
    return out


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


def coset_eigh(
    matrix: np.ndarray,
    basis: LandauBasisSpec,
    potential: FourierPotential,
    rank: int | None = None,
):
    """Sorted eigenvalues of the continuum operator `matrix`, solved block by
    block over its coset_count(basis, potential) guiding-centre cosets
    (the magnetic translation group: J. Zak, Phys. Rev. 134, A1602 (1964)).

    Coset c holds the indices level * n_flux + j with j = c mod g, and every
    entry between two cosets is zero by construction, not to a tolerance: a
    nonzero (or NaN) one raises NumericalCheckError before any solve. With
    rank r given, also returns the d x r frame of the eigenvectors of the r
    lowest eigenvalues, scattered back to full rows.
    """
    g = coset_count(basis, potential)
    # index level * n_flux + q * g + c -> axes (level, q, c), twice; block c
    # is a strided view, and at g = 1 the whole matrix without a copy
    six = matrix.reshape(basis.n_levels, basis.n_flux // g, g,
                         basis.n_levels, basis.n_flux // g, g)
    size = basis.dim // g
    blocks = [six[:, :, c, :, :, c].reshape(size, size) for c in range(g)]
    leak = sum(np.count_nonzero(six[:, :, a, :, :, b])
               for a in range(g) for b in range(g) if a != b)
    if leak:
        raise NumericalCheckError(
            f"operator at B = {basis.field:.12g} has {leak} nonzero entries "
            f"between its {g} guiding-centre cosets"
        )
    if rank is None:
        return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    pairs = [np.linalg.eigh(b) for b in blocks]
    w = np.concatenate([values for values, _ in pairs])
    order = np.argsort(w, kind="stable")
    lowest = order[:rank]
    guiding = np.arange(basis.dim) % basis.n_flux
    frame = np.zeros((basis.dim, rank), dtype=complex)
    for c, (_, vectors) in enumerate(pairs):
        mine = np.flatnonzero(lowest // size == c)
        frame[np.ix_(np.flatnonzero(guiding % g == c), mine)] = (
            vectors[:, lowest[mine] % size])
    return w[order], frame


# A lowest cluster whose gap to the rest is at most this is not separated.
SEPARATION_TOL = 1e-6


def field_operator(
    B: float, potential: FourierPotential, n_levels: int, n_cells: int
) -> ContinuumHamiltonian:
    """Snap B to the nearest feasible value on the n_cells x n_cells torus
    and build the full operator there (no eigensolve)."""
    return continuum_hamiltonian(torus_basis(float(B), n_levels, n_cells), potential)


def cluster_gap(w: np.ndarray, n_flux: int) -> float:
    """Gap above the lowest n_flux of the sorted eigenvalues w; inf when w
    holds only the lowest cluster."""
    return float(w[n_flux] - w[n_flux - 1]) if len(w) > n_flux else float("inf")


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
    n_cells x n_cells torus (the row records both). The distance column is
    the Hausdorff distance between (lowest n_flux eigenvalues - 2B) and the
    spectrum of lll_effective; rows whose lowest cluster is not separated
    from the rest are flagged rather than failed.
    """
    rows = []
    for b_req in field_values:
        ham = field_operator(b_req, potential, n_levels, n_cells)
        basis = ham.basis
        w = coset_eigh(ham.matrix, basis, potential)
        gap = cluster_gap(w, basis.n_flux)
        separated = gap > SEPARATION_TOL
        distance = float("nan")
        if separated:
            lowest = w[: basis.n_flux] - 2.0 * basis.field
            eff = np.linalg.eigvalsh(lll_effective(basis, potential))
            distance = hausdorff(lowest, eff)
        rows.append(
            StrongFieldRow(
                field_requested=float(b_req),
                field=basis.field,
                n_flux=basis.n_flux,
                cluster_gap=gap,
                distance=distance,
                coupling_next_level=next_level_coupling(basis, potential),
                separated=separated,
            )
        )
    return rows
