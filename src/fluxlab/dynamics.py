"""Effective-dynamics defect measurements.

The central quantity is the propagation defect
d(t) = || (e^{-i t H_full} - W^dag e^{-i t H_eff} W) P psi ||
for a spectral projector P of the full operator, the projector Q onto the
lowest Landau level (the first n_flux coordinates of the level-major basis),
and the canonical unitary W mapping ran P to ran Q.
When H_eff is the exact compression of H_full the defect vanishes to
roundoff, so any nonzero reading measures the effective model, not the
plumbing.

The magnetic translations and, for an even potential, the inversion split
the operator into sectors (continuum.sector_blocks), and P, Q and H_eff all
commute with that split, so everything is computed sector by sector: P
restricted to sector s is the orthonormal frame V_s of its block's lowest
rank_s eigenvectors, Q restricted to it is the block's first rank_s rows
(the lowest level), W restricted to ran P is the stack of the rank_s x
rank_s polar factors of the overlaps V_s[:rank_s], and both evolutions run
in those coordinates. No d x n_flux frame is formed. Only the guiding-shift
orbit representatives are solved: the shift keeps Q, so each member's packet
evolves against its representative's frames. H_eff, the lowest-level
compression P H P, is the same operator on one level, whose sector blocks
are the leading rank_s x rank_s corners of the full ones. For a potential
even in x those blocks are exactly real, so the frames, the polar factors
and the projector distance are computed in real arithmetic; only the wave
packet and its evolution are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import (
    FourierPotential,
    orbit_rows,
    sector_blocks,
    separated_cluster,
    torus_basis,
)
from .disorder import hashed_normal
from .errors import ConfigError, InfeasibleModelError, NumericalCheckError


def random_packet(dim: int, seed: int) -> np.ndarray:
    """Normalized complex state from a counter-based draw: real parts are
    hashed_normal(seed, 0..dim-1), imaginary parts hashed_normal(seed,
    dim..2 dim-1)."""
    z = hashed_normal(seed, np.arange(2 * dim))
    vec = z[:dim] + 1j * z[dim:]
    return vec / float(np.linalg.norm(vec))


def nagy_intertwiner(overlap: np.ndarray) -> np.ndarray:
    """Canonical unitary intertwining two nearby rank-r projectors P and Q,
    restricted to ran P, from the r x r overlap X = V_q^dag V_p of their
    orthonormal frames, or from a stack (..., r, r) of the diagonal blocks
    of a block-diagonal X, one per sector that both projectors commute with.

    Sz.-Nagy/Kato: W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P)) is
    defined whenever ||P - Q|| < 1, is unitary with W P W^dag = Q, and is I
    when P = Q. On ran P it reduces to W P = Q P (P Q P)^{-1/2}; in frames,
    W V_p = V_q U where U = X (X^dag X)^{-1/2} is the polar factor of X,
    taken from its SVD A S B^dag as U = A B^dag, block by block.
    ||P - Q|| = sqrt(1 - s_min^2) over all blocks, so ||P - Q|| < 1 exactly
    when X is invertible. Returns U, shaped like the overlap. Every unitary U
    gives W P W^dag = Q, so unitarity of U is the whole check, with
    ||U U^dag - I||_F taken over all blocks; ||W P W^dag - Q|| <=
    ||U U^dag - I||. Projectors of different ranks are at distance 1, so a
    non-square X is rejected.
    """
    rows, cols = np.shape(overlap)[-2:]
    if rows != cols:
        raise InfeasibleModelError(
            f"projector ranks {cols} and {rows} differ, so ||P - Q|| = 1: "
            "no canonical intertwiner exists"
        )
    a, s, bh = np.linalg.svd(overlap)
    s_min = float(s.min())
    dist = math.sqrt(max(0.0, 1.0 - s_min * s_min))
    if dist >= 1.0 - 1e-12:
        raise InfeasibleModelError(
            f"||P - Q|| = {dist:.12g} >= 1: no canonical intertwiner exists "
            "(the ranges are too far apart)"
        )
    u = a @ bh
    dev = float(np.linalg.norm(u @ u.conj().swapaxes(-1, -2) - np.eye(cols)))
    if dev > 1e-10:
        raise NumericalCheckError(
            f"intertwiner is not unitary: ||U U^dag - I||_F = {dev:.3e} > 1e-10"
        )
    return u


def defect_curve(energies, frame, u, w_eff, v_eff, psi, times) -> np.ndarray:
    """Propagation defect d(t) on a grid of times, in rank-r coordinates.

    The full operator H enters through its spectral projection: the d x r
    frame V of eigenvectors and their r energies Lambda, so on ran P,
    e^{-itH} = V e^{-it Lambda} V^dag. u is the intertwiner's polar factor,
    W V = V_q u, and w_eff, v_eff the eigenpairs of the effective operator
    H_eff on ran Q in the target frame's coordinates (r energies, r x r
    vectors). With c = V^dag psi / ||V^dag psi||,
    d(t) = ||e^{-it Lambda} c - u^dag e^{-it H_eff} u c||.

    Every operand may carry the same leading sector axes, one entry per
    sector that H, H_eff, P and Q all commute with: frame (..., d_s, r_s),
    psi (..., d_s) in the sectors' coordinates, and so on. Sectors of
    different shapes come as tuples, one entry per shape in every operand.
    psi may lead with more axes, one entry per packet of the same operators
    (the orbit members), which broadcast and copy no operand. c is then
    normalized over all sectors and packets together, and d(t) is the norm
    over all of them, sqrt(sum_s d_s(t)^2).
    """
    operands = [
        op if isinstance(op, tuple) else (op,)
        for op in (energies, frame, u, w_eff, v_eff, psi)
    ]
    groups = list(zip(*operands))
    if len(groups) != max(len(op) for op in operands) or any(
        f.shape[:-2] + (f.shape[-2],) != p.shape[-(f.ndim - 1):]
        or e.shape != f.shape[:-2] + (f.shape[-1],)
        or uu.shape != f.shape[:-2] + (f.shape[-1],) * 2
        or we.shape != e.shape
        or ve.shape != uu.shape
        for e, f, uu, we, ve, p in groups
    ):
        raise ConfigError("dimension mismatch between operators, projector, state")
    starts = [(f.conj().swapaxes(-1, -2) @ p[..., None])[..., 0]
              for _, f, _, _, _, p in groups]
    norm = float(np.linalg.norm(np.concatenate([c.ravel() for c in starts])))
    if norm < 1e-12:
        raise ConfigError("projected initial state vanishes")

    t = np.asarray(times, dtype=float)
    misses = []
    for (e, f, uu, we, ve, _), start in zip(groups, starts):
        start = start / norm
        moved = (ve.conj().swapaxes(-1, -2) @ (uu @ start[..., None]))[..., 0]
        back = uu.conj().swapaxes(-1, -2) @ ve
        tt = t.reshape((-1,) + (1,) * start.ndim)
        full = np.exp(-1j * tt * e) * start
        eff = (np.exp(-1j * tt * we) * moved)[..., None, :] @ back.swapaxes(-1, -2)
        misses.append((full - eff[..., 0, :]).reshape(len(t), -1))
    return np.linalg.norm(np.concatenate(misses, axis=1), axis=1)


def fit_slope_through_origin(times, defects) -> float:
    """Least-squares slope of d(t) = C t with zero intercept."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(defects, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is the inf checked below
        denom = float(np.sum(t * t))
    if denom == 0.0:
        raise ConfigError("time grid needs at least one nonzero time")
    if not np.isfinite(denom):
        raise ConfigError(f"time grid sum of squares {denom:g} is not finite")
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
    the full operator's sector blocks once (continuum.sector_blocks), take
    their eigendecomposition in one batched solve per block size and rank,
    project onto the lowest n_flux eigenvalues, intertwine with the lowest
    level, and evolve a seeded random packet under both the full operator and
    the lowest-level compression, sector by sector. d(0) is always measured,
    whether or not 0 is on the time grid. Rows whose lowest cluster is not
    separated (continuum.separated_cluster) are flagged, not failed.
    """
    times = tuple(float(t) for t in times)
    return [
        _defect_row(
            float(b_req), torus_basis(float(b_req), n_levels, n_cells), potential,
            times, seed,
        )
        for b_req in field_values
    ]


def _defect_row(b_req, basis, potential, times, seed) -> DefectRow:
    """defect_scaling's row for one field; the field's blocks and
    eigenvectors are released on return, before the next field is built."""
    b_used, n_flux = basis.field, basis.n_flux
    # sector_blocks checked every coset Hermitian on its bands, each split
    # representative's C2 deviation and each other coset's shift deviation
    stacks, *_ = sector_blocks(basis, potential)
    solved = [np.linalg.eigh(blocks) for _, blocks, _ in stacks]
    w, _, separated = separated_cluster(np.concatenate(
        [np.tile(values.ravel(), n) for (*_, n), (values, _) in zip(stacks, solved)]
    ), basis)
    if not separated:
        nan = float("nan")
        return DefectRow(b_req, b_used, n_flux, nan, nan, nan, nan, separated=False)
    # Q has rank_s dimensions in sector s; where P has more or fewer, that
    # sector's block of the overlap X is not square, so X is singular (the
    # representatives' orbit members hold the same counts)
    sectors = [s for group, *_ in stacks for s in group]
    held = np.concatenate(
        [np.count_nonzero(values <= w[n_flux - 1], axis=1) for values, _ in solved])
    uneven = np.flatnonzero(held != [s.rank for s in sectors])
    if uneven.size:
        i = uneven[0]
        raise InfeasibleModelError(
            f"at B = {b_used:.12g}, sector {i} of {len(sectors)} "
            f"({sectors[i].describe()}) holds {held[i]} of the lowest {n_flux} "
            f"eigenvalues, not {sectors[i].rank}: its overlap block is not "
            "square, so ||P - Q|| = 1 and no canonical intertwiner exists"
        )
    # one group per stack, sectors of one size and rank; a half with no
    # lowest-level rows holds none of the cluster, so P and Q miss it
    groups = [
        (group, blocks[:, :r, :r], values[:, :r], vectors[:, :, :r])
        for (group, blocks, _), (values, vectors) in zip(stacks, solved)
        for r in [group[0].rank] if r
    ]
    # ||V_s^dag V_s - I||_F over all sectors bounds the 2-norms of
    # P^2 - P and P - P^dag
    dev = math.hypot(*(
        np.linalg.norm(v.conj().swapaxes(1, 2) @ v - np.eye(v.shape[-1]))
        for *_, v in groups))
    if dev > 1e-10:
        raise NumericalCheckError(
            f"projector frame at B = {b_used:.12g} is not orthonormal: "
            f"||V^dag V - I||_F = {dev:.3e} > 1e-10"
        )
    # Q is the lowest level, the first rank_s rows of each sector, so the
    # overlap V_q^dag V_p is block diagonal, with blocks frames[:, :rank_s]
    u = tuple(nagy_intertwiner(v[:, : v.shape[-1]]) for *_, v in groups)
    w_eff, v_eff = zip(*(np.linalg.eigh(corner) for _, corner, _, _ in groups))
    # index level * n_flux + j sits in coset j mod g at row level * n_flux/g
    # + j // g; coset r + m h, gathered through rows[m], is in the
    # coordinates of its representative r, whose sectors fold it
    rows = orbit_rows(basis, potential)
    psi = random_packet(basis.dim, seed).reshape(
        basis.n_levels, rows.shape[1] // basis.n_levels, -1)
    cosets = psi.transpose(2, 0, 1).reshape(len(rows), -1, rows.shape[1])
    members = np.take_along_axis(cosets, rows[:, None], 2)
    packets = tuple(
        np.stack([s.fold(members[:, s.coset]) for s in group], 1)
        for group, *_ in groups)
    defects = defect_curve(
        tuple(e for _, _, e, _ in groups), tuple(v for *_, v in groups), u,
        w_eff, v_eff, packets, (0.0,) + times,
    )
    return DefectRow(
        field_requested=b_req,
        field=b_used,
        n_flux=n_flux,
        # ||P - Q|| as the largest 2-norm of (I - Q) V_s, the rows of each
        # sector frame below the lowest level: unlike sqrt(1 - s_min^2) of the
        # overlap, the residual keeps its relative accuracy when P and Q
        # nearly coincide
        projector_distance=max(
            float(np.linalg.norm(frame[frame.shape[-1]:], 2))
            for *_, v in groups for frame in v),
        defect_zero=float(defects[0]),
        max_defect=float(defects[1:].max()),
        slope=fit_slope_through_origin(times, defects[1:]),
        separated=True,
    )
