"""Landau-level matrix representation of a charged particle on a magnetic torus.

The Hamiltonian is (-i d/dx - B y)^2 + (-i d/dy + B x)^2 + V(x, y), whose
vector potential has curl 2B. Every Landau-level formula below therefore uses
the effective field strength b = 2B: level energies b(2n + 1), magnetic
length l = 1/sqrt(b). The factor of two is easy to lose, so it is funneled
through LandauBasisSpec.effective_field and never rederived inline.

Basis layout: the torus is n_cells x n_cells copies of the square potential
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

from .errors import ConfigError, InfeasibleModelError
from .lattice import RationalFlux, conjugate_paired, weyl_translation
from .spectra import check_hermitian, hausdorff


@dataclass(frozen=True)
class FourierPotential:
    """Real potential V(x, y) = sum_h c_h e^{i 2 pi (n x + m y) / cell}.

    Harmonics are (n, m, c) with n, m counted in reciprocal units 2 pi / cell.
    Reality requires the partner (-n, -m, conj(c)) for every harmonic.
    """

    harmonics: tuple
    cell: float = 1.0

    def __init__(self, harmonics, cell: float = 1.0):
        entries = []
        for n, m, c in harmonics:
            entries.append((float(n), float(m), complex(c)))
        entries.sort(key=lambda h: (h[0], h[1]))
        object.__setattr__(self, "harmonics", tuple(entries))
        object.__setattr__(self, "cell", float(cell))
        if self.cell <= 0:
            raise ValueError(f"cell size must be > 0, got {cell}")
        if not conjugate_paired(self.harmonics):
            raise ValueError(
                "potential is not real: every harmonic (n, m, c) needs the "
                "partner (-n, -m, conj(c))"
            )

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for n, m, c in self.harmonics:
            out += c * np.exp(2j * np.pi * (n * x + m * y) / self.cell)
        return out.real

    @classmethod
    def cosine_xy(cls, amplitude: float = 1.0, cell: float = 1.0):
        """2 a cos(2 pi x / cell) + 2 a cos(2 pi y / cell)."""
        a = float(amplitude)
        if a == 0.0:
            return cls([], cell=cell)
        return cls([(1, 0, a), (-1, 0, a), (0, 1, a), (0, -1, a)], cell=cell)


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
    cell: float = 1.0

    @property
    def effective_field(self) -> float:
        return 2.0 * self.field

    @property
    def magnetic_length(self) -> float:
        return 1.0 / math.sqrt(self.effective_field)

    @property
    def torus_side(self) -> float:
        return self.n_cells * self.cell

    @property
    def dim(self) -> int:
        return self.n_levels * self.n_flux

    def level_energies(self) -> np.ndarray:
        b = self.effective_field
        return b * (2.0 * np.arange(self.n_levels) + 1.0)


def landau_torus_basis(
    B: float,
    n_flux: int,
    n_levels: int,
    cell: float = 1.0,
    tol: float = 1e-6,
) -> LandauBasisSpec:
    """Validate (B, n_flux, n_levels) and solve for the cell count.

    Flux quantization fixes the torus area: 2B * area = 2 pi * n_flux. The
    cell count per side must come out an integer for the potential lattice to
    tile the torus; if it does not, the nearest feasible field value at the
    rounded cell count is reported in the error.
    """
    if n_flux < 1:
        raise ConfigError(f"n_flux must be >= 1, got {n_flux}")
    if n_levels < 1:
        raise ConfigError(f"n_levels must be >= 1, got {n_levels}")
    if B <= 0:
        raise ConfigError(f"field parameter must be > 0, got {B}")
    if cell <= 0:
        raise ConfigError(f"cell size must be > 0, got {cell}")
    side = math.sqrt(math.pi * n_flux / B)
    cells = side / cell
    n_cells = max(1, round(cells))
    if abs(cells - n_cells) > tol * max(1.0, abs(cells)):
        nearest = math.pi * n_flux / (n_cells * cell) ** 2
        raise InfeasibleModelError(
            f"no integer cell count fits B = {B:.12g} with {n_flux} flux "
            f"quanta (side/cell = {cells:.9g}); nearest feasible field is "
            f"B = {nearest:.12g} at {n_cells} cells per side"
        )
    return LandauBasisSpec(
        field=float(B),
        n_flux=int(n_flux),
        n_levels=int(n_levels),
        n_cells=int(n_cells),
        cell=float(cell),
    )


def feasible_field(B: float, n_cells: int, cell: float = 1.0):
    """Snap B to the nearest value quantizable on an n_cells x n_cells torus.

    Returns (field, n_flux) with field = pi * n_flux / side^2; n_flux is the
    rounded flux-quantum count, forced to at least one.
    """
    if n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
    if B <= 0:
        raise ConfigError(f"field parameter must be > 0, got {B}")
    side = n_cells * cell
    n_flux = max(1, round(B * side * side / math.pi))
    return math.pi * n_flux / (side * side), int(n_flux)


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


def _harmonic_translation(basis: LandauBasisSpec, n: float, m: float) -> np.ndarray:
    """Projective torus translation tau(j1, j2) carried by a cell-reciprocal
    harmonic, with (j1, j2) = n_cells * (n, m).

    tau(j1, j2) = weyl_translation(1/n_flux, -j1, j2), that is
    e^{i pi j1 j2 / n_flux} times j1 cyclic up-shifts and j2 clocks; the
    symmetrization phase pairs with the form-factor phase so that full
    plane-wave elements compose exactly: E(K) E(K') = E(K + K').
    """
    j1f = n * basis.n_cells
    j2f = m * basis.n_cells
    j1, j2 = round(j1f), round(j2f)
    if abs(j1f - j1) > 1e-9 or abs(j2f - j2) > 1e-9:
        raise ConfigError(
            f"harmonic ({n}, {m}) is incompatible with the torus: "
            f"K * side / (2 pi) = ({j1f:.6g}, {j2f:.6g}) must be integers"
        )
    return weyl_translation(RationalFlux(1, basis.n_flux), -j1, j2)


def plane_wave_element(basis: LandauBasisSpec, K) -> np.ndarray:
    """Matrix of e^{i K . r} in the truncated Landau basis.

    K is an (n, m) pair in reciprocal units 2 pi / cell (fractions allowed as
    long as they are multiples of 1 / n_cells, the torus reciprocal step).
    The result factorizes as kron(inter-level form factor, guiding
    translation); it is unitary up to the level truncation.
    """
    n, m = float(K[0]), float(K[1])
    tau = _harmonic_translation(basis, n, m)
    kx = 2.0 * np.pi * n / basis.cell
    ky = 2.0 * np.pi * m / basis.cell
    g = level_form_factor(kx, ky, basis.effective_field, basis.n_levels)
    return np.kron(g, tau)


@dataclass(frozen=True)
class ContinuumHamiltonian:
    """Truncated magnetic Schroedinger operator and its basis metadata."""

    basis: LandauBasisSpec
    matrix: np.ndarray
    potential: FourierPotential


def _check_cell(basis: LandauBasisSpec, potential: FourierPotential) -> None:
    if abs(potential.cell - basis.cell) > 1e-12:
        raise ConfigError(
            f"potential cell {potential.cell} does not match basis cell "
            f"{basis.cell}"
        )


def continuum_hamiltonian(
    basis: LandauBasisSpec, potential: FourierPotential
) -> ContinuumHamiltonian:
    """Kinetic Landau ladder plus the potential in plane-wave elements."""
    _check_cell(basis, potential)
    h = np.kron(
        np.diag(basis.level_energies().astype(complex)), np.eye(basis.n_flux)
    )
    for n, m, c in potential.harmonics:
        h += c * plane_wave_element(basis, (n, m))
    check_hermitian(h, atol=1e-12)
    return ContinuumHamiltonian(basis=basis, matrix=h, potential=potential)


def lll_effective(basis: LandauBasisSpec, potential: FourierPotential) -> np.ndarray:
    """Compression of the potential to the lowest level: sum of
    c_K e^{-|K|^2/(4b)} tau(K) on the guiding space.

    By construction this equals the lowest-level diagonal block of
    continuum_hamiltonian(basis, V) minus the kinetic ladder, exactly; the
    tests pin that identity down to roundoff.
    """
    _check_cell(basis, potential)
    b = basis.effective_field
    out = np.zeros((basis.n_flux, basis.n_flux), dtype=complex)
    for n, m, c in potential.harmonics:
        k_sq = (2.0 * np.pi / basis.cell) ** 2 * (n * n + m * m)
        out += c * math.exp(-k_sq / (4.0 * b)) * _harmonic_translation(basis, n, m)
    check_hermitian(out, atol=1e-10)
    return out


def next_level_coupling(basis: LandauBasisSpec, potential: FourierPotential) -> float:
    """Largest potential matrix element from the top retained level into the
    first dropped one; the standard truncation-error proxy."""
    b = basis.effective_field
    top = basis.n_levels
    worst = 0.0
    for n, m, c in potential.harmonics:
        kx = 2.0 * np.pi * n / basis.cell
        ky = 2.0 * np.pi * m / basis.cell
        g = level_form_factor(kx, ky, b, top + 1)
        worst = max(worst, abs(c) * abs(g[top, top - 1]))
    return worst


@dataclass(frozen=True)
class FieldCase:
    """The full operator at one snapped field value and its sorted spectrum.

    cluster_gap separates the lowest n_flux eigenvalues (the lowest Landau
    cluster) from the rest; it is inf when only the lowest level is kept.
    """

    field_requested: float
    hamiltonian: ContinuumHamiltonian
    eigenvalues: np.ndarray
    cluster_gap: float

    @property
    def basis(self) -> LandauBasisSpec:
        return self.hamiltonian.basis


def field_operator(
    B: float, potential: FourierPotential, n_levels: int, n_cells: int
) -> ContinuumHamiltonian:
    """Snap B to the nearest feasible value on the n_cells x n_cells torus
    and build the full operator there (no eigensolve)."""
    b_used, n_flux = feasible_field(float(B), n_cells, potential.cell)
    basis = landau_torus_basis(b_used, n_flux, n_levels, cell=potential.cell)
    return continuum_hamiltonian(basis, potential)


def cluster_gap(w: np.ndarray, n_flux: int) -> float:
    """Gap above the lowest n_flux of the sorted eigenvalues w; inf when w
    holds only the lowest cluster."""
    return float(w[n_flux] - w[n_flux - 1]) if len(w) > n_flux else float("inf")


def field_case(
    B: float, potential: FourierPotential, n_levels: int, n_cells: int
) -> FieldCase:
    """field_operator followed by its eigenvalues (no vectors) and the
    lowest-cluster gap."""
    ham = field_operator(B, potential, n_levels, n_cells)
    w = np.linalg.eigvalsh(ham.matrix)
    return FieldCase(
        field_requested=float(B),
        hamiltonian=ham,
        eigenvalues=w,
        cluster_gap=cluster_gap(w, ham.basis.n_flux),
    )


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
    sep_tol: float = 1e-6,
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
        case = field_case(b_req, potential, n_levels, n_cells)
        basis = case.basis
        coupling = next_level_coupling(basis, potential)
        separated = case.cluster_gap > sep_tol
        distance = float("nan")
        if separated:
            lowest = case.eigenvalues[: basis.n_flux] - 2.0 * basis.field
            eff = np.linalg.eigvalsh(lll_effective(basis, potential))
            distance = hausdorff(lowest, eff)
        rows.append(
            StrongFieldRow(
                field_requested=case.field_requested,
                field=basis.field,
                n_flux=basis.n_flux,
                cluster_gap=case.cluster_gap,
                distance=distance,
                coupling_next_level=coupling,
                separated=separated,
            )
        )
    return rows

