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
the frame overlap, and both evolutions run in r coordinates, so the
eigendecomposition of H_full, one block per guiding-centre coset
(continuum.coset_eigh), is the only large solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import (
    SEPARATION_TOL, FourierPotential, cluster_gap, coset_eigh, field_operator,
    lll_effective,
)
from .disorder import hashed_normal
from .errors import ConfigError, InfeasibleModelError, NumericalCheckError
from .spectra import eigh_hermitian


def random_packet(dim: int, seed: int) -> np.ndarray:
    """Normalized complex state from a counter-based draw: real parts are
    hashed_normal(seed, 0..dim-1), imaginary parts hashed_normal(seed,
    dim..2 dim-1)."""
    z = hashed_normal(seed, np.arange(2 * dim))
    vec = z[:dim] + 1j * z[dim:]
    return vec / float(np.linalg.norm(vec))


def projector_distance(p: np.ndarray, q: np.ndarray) -> float:
    """||P - Q|| for equal-rank projectors closer than 1, given their
    orthonormal d x r frames, as the 2-norm of (I - Q) V_p.

    Unlike sqrt(1 - sigma_min^2) of the overlap V_q^dag V_p, the residual
    keeps its relative accuracy when P and Q nearly coincide.
    """
    resid = p - q @ (q.conj().T @ p)
    return float(np.linalg.norm(resid, 2))


def nagy_intertwiner(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Canonical unitary intertwining two nearby projectors, restricted to
    ran P, from their orthonormal d x r frames V_p and V_q.

    Sz.-Nagy/Kato: W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P)) is
    defined whenever ||P - Q|| < 1, is unitary with W P W^dag = Q, and is I
    when P = Q. On ran P it reduces to W P = Q P (P Q P)^{-1/2}; in frames,
    with the overlap X = V_q^dag V_p, W V_p = V_q U where U = X (X^dag X)^{-1/2}
    is the polar factor of X, taken from its SVD A S B^dag as U = A B^dag.
    ||P - Q|| = sqrt(1 - s_min^2), so ||P - Q|| < 1 exactly when X is
    invertible. Returns U (r x r). Every unitary U gives W P W^dag = Q, so
    unitarity of U is the whole check; ||W P W^dag - Q|| <= ||U U^dag - I||.
    """
    if p.shape[0] != q.shape[0]:
        raise ConfigError("projectors live on different spaces")
    r = p.shape[1]
    if q.shape[1] != r:
        raise InfeasibleModelError(
            f"projector ranks {r} and {q.shape[1]} differ, so ||P - Q|| = 1: "
            "no canonical intertwiner exists"
        )
    a, s, bh = np.linalg.svd(q.conj().T @ p)
    s_min = float(s[-1]) if s.size else 1.0
    dist = math.sqrt(max(0.0, 1.0 - s_min * s_min))
    if dist >= 1.0 - 1e-12:
        raise InfeasibleModelError(
            f"||P - Q|| = {dist:.12g} >= 1: no canonical intertwiner exists "
            "(the ranges are too far apart)"
        )
    u = a @ bh
    dev = float(np.linalg.norm(u @ u.conj().T - np.eye(r)))
    if dev > 1e-10:
        raise NumericalCheckError(
            f"intertwiner is not unitary: ||U U^dag - I||_F = {dev:.3e} > 1e-10"
        )
    return u


def defect_curve(
    energies: np.ndarray,
    frame: np.ndarray,
    u: np.ndarray,
    h_eff: np.ndarray,
    psi: np.ndarray,
    times,
) -> np.ndarray:
    """Propagation defect d(t) on a grid of times, in rank-r coordinates.

    The full operator H enters through its spectral projection: the d x r
    frame V of eigenvectors and their r energies Lambda, so on ran P,
    e^{-itH} = V e^{-it Lambda} V^dag. u is the intertwiner's polar factor,
    W V = V_q u, and h_eff the effective operator on ran Q in the target
    frame's coordinates (r x r). With c = V^dag psi / ||V^dag psi||,
    d(t) = ||e^{-it Lambda} c - u^dag e^{-it h_eff} u c||.
    """
    r = frame.shape[1]
    if (
        psi.shape != (frame.shape[0],)
        or energies.shape != (r,)
        or u.shape != (r, r)
        or h_eff.shape != (r, r)
    ):
        raise ConfigError("dimension mismatch between operators, projector, state")
    start = frame.conj().T @ psi
    norm = float(np.linalg.norm(start))
    if norm < 1e-12:
        raise ConfigError("projected initial state vanishes")
    start = start / norm

    w_eff, v_eff = eigh_hermitian(h_eff)
    moved = v_eff.conj().T @ (u @ start)
    back = u.conj().T @ v_eff
    t = np.asarray(times, dtype=float)[:, None]
    full = np.exp(-1j * t * energies[None, :]) * start[None, :]
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
) -> list[DefectRow]:
    """Defect experiment across a list of field values, one row per field.

    For each requested B (snapped to the nearest feasible torus value): build
    the full operator and take its coset-blocked eigendecomposition, project
    onto its lowest n_flux eigenvalues, intertwine with the lowest-level
    block, and evolve a seeded random packet under both the full operator and
    the lowest-level compression 2B + lll_effective, in rank-n_flux
    coordinates.
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
        w, p = coset_eigh(ham.matrix, basis, potential, rank=n_flux)
        if not np.all(np.isfinite(w)):
            raise NumericalCheckError(
                f"operator at B = {b_used:.12g} has non-finite eigenvalues"
            )
        if cluster_gap(w, n_flux) <= SEPARATION_TOL:
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
        energies = w[:n_flux]
        # ||V^dag V - I||_F bounds the 2-norms of P^2 - P and P - P^dag
        dev = float(np.linalg.norm(p.conj().T @ p - np.eye(n_flux)))
        if dev > 1e-10:
            raise NumericalCheckError(
                f"projector frame at B = {b_used:.12g} is not orthonormal: "
                f"||V^dag V - I||_F = {dev:.3e} > 1e-10"
            )
        q = np.eye(basis.dim, n_flux, dtype=complex)
        u = nagy_intertwiner(p, q)
        h_eff = 2.0 * b_used * np.eye(n_flux) + lll_effective(basis, potential)
        psi = random_packet(basis.dim, seed)
        defects = defect_curve(energies, p, u, h_eff, psi, (0.0,) + times)
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
