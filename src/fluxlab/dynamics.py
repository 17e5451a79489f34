"""Time evolution and effective-dynamics defect measurements.

The central quantity is the propagation defect
d(t) = || (e^{-i t H_full} - W^dag e^{-i t H_eff} W) P psi ||
for a spectral projector P of the full operator, a reference block projector
Q on the effective space, and the canonical unitary W mapping ran P to ran Q.
When H_eff is the exact compression of H_full the defect vanishes to
roundoff, so any nonzero reading measures the effective model, not the
plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuum import FourierPotential, field_case, lll_effective
from .errors import ConfigError, InfeasibleModelError, NumericalCheckError
from .spectra import eigh_hermitian


@dataclass(frozen=True)
class WavePacket:
    """Normalized complex state vector."""

    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex).ravel()
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-10:
            raise ConfigError(
                f"wave packet must be normalized, got norm {norm:.12g}"
            )
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size

    @classmethod
    def normalized(cls, vector) -> "WavePacket":
        vec = np.asarray(vector, dtype=complex).ravel()
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ConfigError("cannot normalize a (near) zero vector")
        return cls(vec / norm)

    @classmethod
    def random(cls, dim: int, seed: int) -> "WavePacket":
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return cls.normalized(vec)


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent with its rank."""

    matrix: np.ndarray
    rank: int = -1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"projector must be square, got shape {m.shape}")
        if float(np.linalg.norm(m - m.conj().T, 2)) > 1e-10:
            raise NumericalCheckError("projector is not Hermitian to 1e-10")
        if float(np.linalg.norm(m @ m - m, 2)) > 1e-10:
            raise NumericalCheckError("projector is not idempotent to 1e-10")
        trace = float(np.trace(m).real)
        rank = int(round(trace))
        if abs(trace - rank) > 1e-8:
            raise NumericalCheckError(
                f"projector trace {trace:.12g} is not near an integer"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", rank)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def block(cls, dim: int, size: int) -> "Projector":
        """Projector onto the first `size` coordinates."""
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(size), np.arange(size)] = 1.0
        return cls(m)


@dataclass(frozen=True)
class IntertwinerUnitary:
    """Unitary W with W P W^dag = Q for the stored projector pair."""

    matrix: np.ndarray
    source: Projector
    target: Projector

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=complex)
        d = w.shape[0]
        if w.shape != (d, d) or d != self.source.dim or d != self.target.dim:
            raise ConfigError("intertwiner and projector dimensions disagree")
        if float(np.linalg.norm(w @ w.conj().T - np.eye(d), 2)) > 1e-10:
            raise NumericalCheckError("intertwiner is not unitary to 1e-10")
        moved = w @ self.source.matrix @ w.conj().T
        if float(np.linalg.norm(moved - self.target.matrix, 2)) > 1e-8:
            raise NumericalCheckError(
                "intertwiner does not map the source projector to the target"
            )
        object.__setattr__(self, "matrix", w)


def _propagator_apply(w, v, states, t):
    """Apply e^{-i t H} = v e^{-i t w} v^dag to the columns of `states`."""
    coeff = v.conj().T @ states
    return v @ (np.exp(-1j * t * w)[:, None] * coeff)


def evolve(h: np.ndarray, psi: WavePacket, t: float) -> WavePacket:
    """e^{-i t H} psi via full eigendecomposition."""
    h = np.asarray(h)
    if h.shape[0] != psi.dim:
        raise ConfigError(
            f"dimension mismatch: operator {h.shape[0]}, state {psi.dim}"
        )
    w, v = eigh_hermitian(h)
    out = _propagator_apply(w, v, psi.vector[:, None], float(t))[:, 0]
    return WavePacket(out)


def spectral_projection(h: np.ndarray, window, margin: float = 1e-9) -> Projector:
    """Spectral projector of H onto the open energy window (lo, hi).

    Any eigenvalue within `margin` of a window edge makes the cluster
    ambiguous and is treated as infeasible rather than silently assigned.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi < lo:
        raise ConfigError(f"window ({lo}, {hi}) is reversed")
    w, v = eigh_hermitian(h)
    near = np.minimum(np.abs(w - lo), np.abs(w - hi))
    if np.any(near < margin):
        bad = float(w[np.argmin(near)])
        raise InfeasibleModelError(
            f"eigenvalue {bad:.12g} lies within {margin:g} of the window "
            f"({lo:.6g}, {hi:.6g}); cluster membership is ambiguous"
        )
    sel = (w > lo) & (w < hi)
    cols = v[:, sel]
    return Projector(cols @ cols.conj().T)


def nagy_intertwiner(p: Projector, q: Projector) -> IntertwinerUnitary:
    """Canonical unitary intertwining two nearby projectors.

    W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P)), defined whenever
    ||P - Q|| < 1; W is unitary and W P W^dag = Q, and W = I when P = Q.
    """
    if p.dim != q.dim:
        raise ConfigError("projectors live on different spaces")
    pm, qm = p.matrix, q.matrix
    dist = float(np.linalg.norm(pm - qm, 2))
    if dist >= 1.0 - 1e-12:
        raise InfeasibleModelError(
            f"||P - Q|| = {dist:.12g} >= 1: no canonical intertwiner exists "
            "(ranks differ or the ranges are too far apart)"
        )
    eye = np.eye(p.dim)
    core = eye - (qm - pm) @ (qm - pm)
    w_core, v_core = np.linalg.eigh(core)
    inv_half = (v_core * (1.0 / np.sqrt(w_core))[None, :]) @ v_core.conj().T
    w = inv_half @ (qm @ pm + (eye - qm) @ (eye - pm))
    return IntertwinerUnitary(matrix=w, source=p, target=q)


def defect_curve(
    h_full: np.ndarray,
    h_eff: np.ndarray,
    projector: Projector,
    intertwiner: IntertwinerUnitary,
    psi: WavePacket,
    times,
) -> np.ndarray:
    """Propagation defect d(t) on a grid of times, sharing one
    eigendecomposition per operator."""
    h_full = np.asarray(h_full)
    h_eff = np.asarray(h_eff)
    d = psi.dim
    if h_full.shape[0] != d or h_eff.shape[0] != d or projector.dim != d:
        raise ConfigError("dimension mismatch between operators, projector, state")
    start = projector.matrix @ psi.vector
    norm = float(np.linalg.norm(start))
    if norm < 1e-12:
        raise ConfigError("projected initial state vanishes")
    start = start / norm

    w_full, v_full = eigh_hermitian(h_full)
    w_eff, v_eff = eigh_hermitian(h_eff)
    wmat = intertwiner.matrix
    moved = wmat @ start

    out = np.empty(len(times), dtype=float)
    for i, t in enumerate(np.asarray(times, dtype=float)):
        a = _propagator_apply(w_full, v_full, start[:, None], t)[:, 0]
        b = wmat.conj().T @ _propagator_apply(w_eff, v_eff, moved[:, None], t)[:, 0]
        out[i] = float(np.linalg.norm(a - b))
    return out


def peierls_defect(
    h_full: np.ndarray,
    h_eff: np.ndarray,
    projector: Projector,
    intertwiner: IntertwinerUnitary,
    psi: WavePacket,
    t: float,
) -> float:
    """Single-time propagation defect; see defect_curve."""
    return float(
        defect_curve(h_full, h_eff, projector, intertwiner, psi, [float(t)])[0]
    )


def fit_slope_through_origin(times, defects) -> float:
    """Least-squares slope of d(t) = C t with zero intercept."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(defects, dtype=float)
    denom = float(np.sum(t * t))
    if denom == 0.0:
        raise ConfigError("time grid needs at least one nonzero time")
    return float(np.sum(t * d) / denom)


@dataclass(frozen=True)
class DefectRow:
    """Per-field summary of the defect experiment."""

    field_requested: float
    field: float
    n_flux: int
    projector_distance: float
    defect_zero: float
    max_defect: float
    slope: float
    separated: bool


@dataclass(frozen=True)
class DefectScalingReport:
    rows: tuple
    times: tuple

    @property
    def monotone(self) -> bool:
        """True when the fitted slopes strictly decrease over separated rows."""
        slopes = [r.slope for r in self.rows if r.separated]
        return all(b < a for a, b in zip(slopes, slopes[1:]))


def defect_scaling(
    field_values,
    potential: FourierPotential,
    times,
    n_levels: int = 6,
    n_cells: int = 4,
    seed: int = 7,
    sep_tol: float = 1e-6,
) -> DefectScalingReport:
    """Defect experiment across a list of field values.

    For each requested B (snapped to the nearest feasible torus value): build
    the full operator, project onto its lowest n_flux eigenvalues, intertwine
    with the lowest-level block, and evolve a seeded random packet under both
    the full operator and the lowest-level compression 2B + lll_effective.
    Rows whose lowest cluster is not separated are flagged, not failed.
    """
    times = tuple(float(t) for t in times)
    rows = []
    for b_req in field_values:
        case = field_case(b_req, potential, n_levels, n_cells)
        basis, h, w = case.basis, case.hamiltonian.matrix, case.eigenvalues
        b_used, n_flux = basis.field, basis.n_flux
        if case.cluster_gap <= sep_tol:
            rows.append(
                DefectRow(
                    field_requested=case.field_requested,
                    field=b_used,
                    n_flux=n_flux,
                    projector_distance=float("nan"),
                    defect_zero=float("nan"),
                    max_defect=float("nan"),
                    slope=float("nan"),
                    separated=False,
                )
            )
            continue
        # the window closes midway across the cluster gap, or above the whole
        # spectrum when the basis keeps only the lowest level
        top = 0.5 * float(w[n_flux - 1] + w[n_flux]) if basis.dim > n_flux else np.inf
        window = (float(w[0]) - 1.0, top)
        p = spectral_projection(h, window)
        q = Projector.block(basis.dim, n_flux)
        intertwiner = nagy_intertwiner(p, q)
        h_eff = np.zeros_like(h)
        h_eff[:n_flux, :n_flux] = 2.0 * b_used * np.eye(n_flux) + lll_effective(
            basis, potential
        )
        psi = WavePacket.random(basis.dim, seed)
        defects = defect_curve(h, h_eff, p, intertwiner, psi, times)
        d0 = float(defects[np.asarray(times) == 0.0][0]) if 0.0 in times else 0.0
        rows.append(
            DefectRow(
                field_requested=case.field_requested,
                field=b_used,
                n_flux=n_flux,
                projector_distance=float(
                    np.linalg.norm(p.matrix - q.matrix, 2)
                ),
                defect_zero=d0,
                max_defect=float(defects.max()),
                slope=fit_slope_through_origin(times, defects),
                separated=True,
            )
        )
    return DefectScalingReport(rows=tuple(rows), times=times)
