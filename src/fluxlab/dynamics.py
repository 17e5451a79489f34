"""Effective-dynamics defect measurements.

The central quantity is the propagation defect
d(t) = || (e^{-i t H_full} - W^dag e^{-i t H_eff} W) P psi ||
for a spectral projector P of the full operator, a reference block projector
Q on the effective space, and the canonical unitary W mapping ran P to ran Q.
When H_eff is the exact compression of H_full the defect vanishes to
roundoff, so any nonzero reading measures the effective model, not the
plumbing.

Everything is factored through the rank r = rank P: projectors are held as
orthonormal d x r frames, W restricted to ran P is the r x r polar factor of
the frame overlap, and both evolutions run in r coordinates, so one d x d
eigendecomposition of H_full is the only dense solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import FourierPotential, cluster_gap, field_operator, lll_effective
from .disorder import hashed_normal
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
        """Counter-based draw: real parts are hashed_normal(seed, 0..dim-1),
        imaginary parts hashed_normal(seed, dim..2 dim-1)."""
        z = hashed_normal(seed, np.arange(2 * dim))
        return cls.normalized(z[:dim] + 1j * z[dim:])


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector P = V V^dag, held as its orthonormal frame V
    (dim x rank); the dim x dim matrix is built only on demand."""

    frame: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.frame, dtype=complex)
        if v.ndim != 2 or v.shape[1] > v.shape[0]:
            raise ConfigError(
                f"projector frame must be dim x rank with rank <= dim, got "
                f"shape {v.shape}"
            )
        # ||V^dag V - I||_F bounds the 2-norms of P^2 - P and P - P^dag
        dev = float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
        if dev > 1e-10:
            raise NumericalCheckError(
                f"projector frame is not orthonormal: ||V^dag V - I||_F = "
                f"{dev:.3e} > 1e-10"
            )
        object.__setattr__(self, "frame", v)

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    @classmethod
    def block(cls, dim: int, size: int) -> "Projector":
        """Projector onto the first `size` coordinates."""
        return cls(np.eye(dim, size, dtype=complex))


@dataclass(frozen=True)
class SpectralProjector(Projector):
    """Spectral projector of a Hermitian H: the frame columns are
    eigenvectors, H V = V diag(energies), so e^{-itH} V = V e^{-it energies}."""

    energies: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        e = np.asarray(self.energies, dtype=float).ravel()
        if e.size != self.rank:
            raise ConfigError(
                f"{e.size} energies for a rank-{self.rank} spectral projector"
            )
        object.__setattr__(self, "energies", e)


@dataclass(frozen=True)
class IntertwinerUnitary:
    """Unitary W from ran P onto ran Q in frame coordinates: W V_p = V_q U,
    with U = `matrix` (rank x rank).

    Every unitary U gives W P W^dag = Q, so unitarity of U is the whole
    check; ||W P W^dag - Q|| <= ||U U^dag - I||.
    """

    matrix: np.ndarray
    source: Projector
    target: Projector

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        r = self.source.rank
        if (
            self.source.dim != self.target.dim
            or self.target.rank != r
            or u.shape != (r, r)
        ):
            raise ConfigError("intertwiner and projector dimensions disagree")
        dev = float(np.linalg.norm(u @ u.conj().T - np.eye(r)))
        if dev > 1e-10:
            raise NumericalCheckError(
                f"intertwiner is not unitary: ||U U^dag - I||_F = {dev:.3e} > 1e-10"
            )
        object.__setattr__(self, "matrix", u)


def spectral_projection(eigenpairs, window, margin: float = 1e-9) -> SpectralProjector:
    """Spectral projector of H onto the open energy window (lo, hi), from
    H's eigenpairs (w, v) as returned by eigh_hermitian(H).

    Any eigenvalue within `margin` of a window edge makes the cluster
    ambiguous and is treated as infeasible rather than silently assigned.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi < lo:
        raise ConfigError(f"window ({lo}, {hi}) is reversed")
    w, v = eigenpairs
    near = np.minimum(np.abs(w - lo), np.abs(w - hi))
    if np.any(near < margin):
        bad = float(w[np.argmin(near)])
        raise InfeasibleModelError(
            f"eigenvalue {bad:.12g} lies within {margin:g} of the window "
            f"({lo:.6g}, {hi:.6g}); cluster membership is ambiguous"
        )
    sel = (w > lo) & (w < hi)
    return SpectralProjector(frame=v[:, sel], energies=w[sel])


def projector_distance(p: Projector, q: Projector) -> float:
    """||P - Q|| for equal-rank projectors closer than 1, as the 2-norm of
    (I - Q) V_p.

    Unlike sqrt(1 - sigma_min^2) of the overlap V_q^dag V_p, the residual
    keeps its relative accuracy when P and Q nearly coincide.
    """
    resid = p.frame - q.frame @ (q.frame.conj().T @ p.frame)
    return float(np.linalg.norm(resid, 2))


def nagy_intertwiner(p: Projector, q: Projector) -> IntertwinerUnitary:
    """Canonical unitary intertwining two nearby projectors, restricted to
    ran P.

    Sz.-Nagy/Kato: W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P)) is
    defined whenever ||P - Q|| < 1, is unitary with W P W^dag = Q, and is I
    when P = Q. On ran P it reduces to W P = Q P (P Q P)^{-1/2}; in frames,
    with the overlap X = V_q^dag V_p, W V_p = V_q U where U = X (X^dag X)^{-1/2}
    is the polar factor of X, taken from its SVD A S B^dag as U = A B^dag.
    ||P - Q|| = sqrt(1 - s_min^2), so ||P - Q|| < 1 exactly when X is
    invertible.
    """
    if p.dim != q.dim:
        raise ConfigError("projectors live on different spaces")
    if p.rank != q.rank:
        raise InfeasibleModelError(
            f"projector ranks {p.rank} and {q.rank} differ, so ||P - Q|| = 1: "
            "no canonical intertwiner exists"
        )
    a, s, bh = np.linalg.svd(q.frame.conj().T @ p.frame)
    s_min = float(s[-1]) if s.size else 1.0
    dist = math.sqrt(max(0.0, 1.0 - s_min * s_min))
    if dist >= 1.0 - 1e-12:
        raise InfeasibleModelError(
            f"||P - Q|| = {dist:.12g} >= 1: no canonical intertwiner exists "
            "(the ranges are too far apart)"
        )
    return IntertwinerUnitary(matrix=a @ bh, source=p, target=q)


def defect_curve(
    h_eff: np.ndarray,
    intertwiner: IntertwinerUnitary,
    psi: WavePacket,
    times,
) -> np.ndarray:
    """Propagation defect d(t) on a grid of times, in rank-r coordinates.

    The full operator enters through the intertwiner's source, a
    SpectralProjector (V, Lambda): on ran P, e^{-itH} = V e^{-it Lambda} V^dag.
    h_eff is the effective operator on ran Q in the target frame's
    coordinates (r x r). With c = V^dag psi / ||V^dag psi|| and W V = V_q U,
    d(t) = ||e^{-it Lambda} c - U^dag e^{-it h_eff} U c||.
    """
    source = intertwiner.source
    if not isinstance(source, SpectralProjector):
        raise ConfigError(
            "defect_curve needs the spectral projection of the full operator "
            "as the intertwiner's source"
        )
    h_eff = np.asarray(h_eff)
    r = source.rank
    if psi.dim != source.dim or h_eff.shape != (r, r):
        raise ConfigError("dimension mismatch between operators, projector, state")
    start = source.frame.conj().T @ psi.vector
    norm = float(np.linalg.norm(start))
    if norm < 1e-12:
        raise ConfigError("projected initial state vanishes")
    start = start / norm

    w_eff, v_eff = eigh_hermitian(h_eff)
    u = intertwiner.matrix
    moved = v_eff.conj().T @ (u @ start)
    back = u.conj().T @ v_eff
    t = np.asarray(times, dtype=float)[:, None]
    full = np.exp(-1j * t * source.energies[None, :]) * start[None, :]
    eff = (np.exp(-1j * t * w_eff[None, :]) * moved[None, :]) @ back.T
    return np.linalg.norm(full - eff, axis=1)


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


def defect_scaling(
    field_values,
    potential: FourierPotential,
    times,
    n_levels: int = 6,
    n_cells: int = 4,
    seed: int = 7,
    sep_tol: float = 1e-6,
) -> list[DefectRow]:
    """Defect experiment across a list of field values, one row per field.

    For each requested B (snapped to the nearest feasible torus value): build
    the full operator and take its one eigendecomposition, project onto its
    lowest n_flux eigenvalues, intertwine with the lowest-level block, and
    evolve a seeded random packet under both the full operator and the
    lowest-level compression 2B + lll_effective, in rank-n_flux coordinates.
    d(0) is always measured, whether or not 0 is on the time grid. Rows whose
    lowest cluster is not separated are flagged, not failed.
    """
    times = tuple(float(t) for t in times)
    rows = []
    for b_req in field_values:
        ham = field_operator(b_req, potential, n_levels, n_cells)
        basis = ham.basis
        b_used, n_flux = basis.field, basis.n_flux
        # continuum_hamiltonian checked H Hermitian at 1e-12
        w, v = np.linalg.eigh(ham.matrix)
        if cluster_gap(w, n_flux) <= sep_tol:
            rows.append(
                DefectRow(
                    field_requested=float(b_req),
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
        p = spectral_projection((w, v), (float(w[0]) - 1.0, top))
        q = Projector.block(basis.dim, n_flux)
        intertwiner = nagy_intertwiner(p, q)
        h_eff = 2.0 * b_used * np.eye(n_flux) + lll_effective(basis, potential)
        psi = WavePacket.random(basis.dim, seed)
        defects = defect_curve(h_eff, intertwiner, psi, (0.0,) + times)
        rows.append(
            DefectRow(
                field_requested=float(b_req),
                field=b_used,
                n_flux=n_flux,
                projector_distance=projector_distance(p, q),
                defect_zero=float(defects[0]),
                max_defect=float(defects[1:].max()),
                slope=fit_slope_through_origin(times, defects[1:]),
                separated=True,
            )
        )
    return rows
