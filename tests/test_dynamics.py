"""Tests for time evolution, projector frames, intertwiners, defects."""

import math
import re

import numpy as np
import pytest

from fluxlab import (
    ConfigError,
    DefectRow,
    FourierPotential,
    InfeasibleModelError,
    NumericalCheckError,
    defect_curve,
    defect_scaling,
    fit_slope_through_origin,
    hashed_normal,
    nagy_intertwiner,
    random_packet,
    sector_blocks,
    strong_field_report,
    torus_basis,
)
from fluxlab import continuum, dynamics, spectra
from fluxlab.cli import decreasing_gate, main
from oracles import (
    dense_hamiltonian,
    projector_distance,
    scattered_defect_scaling,
    two_frame_nagy,
    unsplit_frame,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def normalized(vector):
    vec = np.asarray(vector, dtype=complex)
    return vec / np.linalg.norm(vec)


def block(dim, size):
    """Frame of the projector onto the first `size` coordinates."""
    return np.eye(dim, size, dtype=complex)


def matrix(frame):
    """The d x d projector V V^dag of an orthonormal frame."""
    return frame @ frame.conj().T


def test_wave_packet_validation():
    psi = random_packet(16, seed=5)
    assert psi.shape == (16,) and psi.dtype == complex
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert np.array_equal(psi, random_packet(16, seed=5))
    assert not np.array_equal(psi, random_packet(16, seed=6))


def test_wave_packet_stream_is_counter_based():
    # real parts take counters 0..d-1 of hashed_normal, imaginary parts d..2d-1
    psi = random_packet(4, seed=7)
    z = hashed_normal(7, np.arange(8))
    expected = z[:4] + 1j * z[4:]
    assert np.array_equal(psi, expected / np.linalg.norm(expected))
    pinned = [
        0.11707639112387154 - 0.1613600873672875j,
        -0.38365608906530674 - 0.20078534983431248j,
        0.4981533225465174 - 0.5800989980349774j,
        -0.24715820246323106 + 0.3563573096361048j,
    ]
    assert np.max(np.abs(psi - pinned)) < 1e-14
    negative = random_packet(3, seed=-1)
    assert abs(negative[0] - (0.6431747954403726 + 0.11323270843225144j)) < 1e-14


def test_intertwiner_validation(monkeypatch):
    p = block(4, 2)
    assert np.linalg.norm(nagy_intertwiner(p[:2]) - np.eye(2)) < 1e-12
    # orthogonal ranges: a zero overlap, ||P - Q|| = 1
    with pytest.raises(InfeasibleModelError, match=">= 1"):
        nagy_intertwiner(np.zeros((2, 2)))
    # a non-unitary polar factor fails the unitarity check, not a config check
    real = np.linalg.svd

    def shrunk(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        return u, s, 0.5 * vh

    monkeypatch.setattr(np.linalg, "svd", shrunk)
    with pytest.raises(NumericalCheckError, match="not unitary"):
        nagy_intertwiner(p[:2])


def test_nagy_rank_mismatch_rejected():
    # rank 2 against rank 3: the overlap V_q^dag V_p is 3 x 2, ||P - Q|| = 1
    with pytest.raises(InfeasibleModelError, match="ranks 2 and 3 differ"):
        nagy_intertwiner(block(6, 3).conj().T @ block(6, 2))
    with pytest.raises(InfeasibleModelError, match="ranks 3 and 2 differ"):
        nagy_intertwiner(block(6, 2).conj().T @ block(6, 3))
    # orthogonal ranges: ||P - Q|| = 1
    with pytest.raises(InfeasibleModelError, match=">= 1"):
        nagy_intertwiner(np.eye(4)[:, 2:].conj().T @ block(4, 2))


def evolve(h, psi, t):
    """Dense oracle: e^{-i t H} psi via a full eigendecomposition."""
    h = np.asarray(h)
    if h.shape[0] != psi.size:
        raise ConfigError(
            f"dimension mismatch: operator {h.shape[0]}, state {psi.size}"
        )
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * float(t) * w) * (v.conj().T @ psi))


def dense_nagy(pm, qm):
    """Dense oracle: W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P))."""
    eye = np.eye(pm.shape[0])
    w_core, v_core = np.linalg.eigh(eye - (qm - pm) @ (qm - pm))
    inv_half = (v_core * (1.0 / np.sqrt(w_core))[None, :]) @ v_core.conj().T
    return inv_half @ (qm @ pm + (eye - qm) @ (eye - pm))


def dense_defect(h_full, h_eff, pm, wmat, psi, times):
    """Dense oracle for defect_curve with d x d operators and intertwiner."""
    start = normalized(pm @ psi)
    moved = wmat @ start
    return np.array(
        [
            np.linalg.norm(
                evolve(h_full, start, t) - wmat.conj().T @ evolve(h_eff, moved, t)
            )
            for t in times
        ]
    )


def padded(h_r, dim):
    """Effective operator on the coordinate block, zero elsewhere."""
    out = np.zeros((dim, dim), dtype=complex)
    r = h_r.shape[0]
    out[:r, :r] = h_r
    return out


def test_evolve_zero_time_is_identity():
    h = random_hermitian(9, seed=0)
    psi = random_packet(9, seed=1)
    out = evolve(h, psi, 0.0)
    assert np.linalg.norm(out - psi) < 1e-12


def test_evolve_diagonal_phases():
    h = np.diag([1.0, 2.0, 5.0])
    psi = normalized([1.0, 1.0, 1.0])
    out = evolve(h, psi, 0.25)
    expected = psi * np.exp(-1j * 0.25 * np.array([1.0, 2.0, 5.0]))
    assert np.linalg.norm(out - expected) < 1e-12


def test_evolve_unitary_and_group_law():
    h = random_hermitian(12, seed=2)
    psi = random_packet(12, seed=3)
    for t in (0.3, 1.7, -0.9):
        out = evolve(h, psi, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10
        back = evolve(h, out, -t)
        assert np.linalg.norm(back - psi) < 1e-10
    ab = evolve(h, evolve(h, psi, 0.4), 0.8)
    direct = evolve(h, psi, 1.2)
    assert np.linalg.norm(ab - direct) < 1e-8


def test_evolve_dimension_mismatch():
    with pytest.raises(ConfigError):
        evolve(np.eye(3), random_packet(4, seed=0), 1.0)


def random_frame(dim, rank, seed):
    return np.linalg.eigh(random_hermitian(dim, seed))[1][:, :rank]


def test_nagy_identity_for_equal_projectors():
    for seed in range(20):
        p = random_frame(6, 2, seed)
        u = two_frame_nagy(p, p)
        assert np.linalg.norm(u - np.eye(2), 2) < 1e-12
        dense = dense_nagy(matrix(p), matrix(p))
        assert np.linalg.norm(dense - np.eye(6), 2) < 1e-12
        assert np.linalg.norm(dense @ p - p @ u) < 1e-12


def test_nagy_intertwines_rotated_projectors():
    p = block(8, 3)
    eps = 0.05
    for seed in range(40):
        a = random_hermitian(8, seed=seed)
        wa, va = np.linalg.eigh(a)
        rot = (va * np.exp(1j * eps * wa)[None, :]) @ va.conj().T
        q = rot @ p
        u = two_frame_nagy(p, q)
        wv = q @ u
        assert np.linalg.norm(matrix(wv) - matrix(q), 2) < 1e-10
        assert np.linalg.norm(u @ u.conj().T - np.eye(3), 2) < 1e-10
        # the factored intertwiner is the dense one restricted to ran P
        dense = dense_nagy(matrix(p), matrix(q))
        assert np.linalg.norm(dense @ p - wv) < 1e-12
        exact = np.linalg.norm(matrix(p) - matrix(q), 2)
        assert abs(projector_distance(p, q) - exact) < 1e-12


@pytest.mark.parametrize(
    "fields, n_cells, n_levels", [((5.0, 10.0, 20.0), 2, 3), ((40.0,), 4, 6)]
)
def test_level_zero_intertwiner_matches_the_two_frame_oracle(
    fields, n_cells, n_levels, monkeypatch
):
    # Q is the lowest level, the first rank_s rows of each sector, so the
    # overlap of sector s is V_s[:rank_s] and (I - Q) V_s is V_s[rank_s:]:
    # defect_scaling has to give each orbit representative's two-frame U bit
    # for bit, one stack per sector size and rank, and the largest sector
    # distance to roundoff
    potential = FourierPotential.cosine_xy(1.0)
    solved = []
    real = dynamics.nagy_intertwiner

    def recorded(overlap):
        solved.append(real(overlap))
        return solved[-1]

    monkeypatch.setattr(dynamics, "nagy_intertwiner", recorded)
    rows = defect_scaling(fields, potential, (0.5,), n_levels=n_levels, n_cells=n_cells)
    for b, row in zip(fields, rows):
        basis = torus_basis(b, n_levels, n_cells)
        stacks, *_ = sector_blocks(basis, potential)
        distances = []
        for sectors, blocks, _ in stacks:
            _, vectors = np.linalg.eigh(blocks)
            r = sectors[0].rank
            u = solved.pop(0)
            assert u.shape == (len(sectors), r, r)
            q = np.eye(blocks.shape[-1], r, dtype=vectors.dtype)
            for sector, v in zip(u, vectors):
                p = v[:, :r]
                assert np.array_equal(sector, two_frame_nagy(p, q))
                distances.append(projector_distance(p, q))
        assert abs(row.projector_distance - max(distances)) <= 1e-15
    assert solved == []


def block_dominant_hamiltonian(dim, seed, strength=0.05):
    """Diagonal ladder plus a weak perturbation, so the low cluster stays
    near the first coordinates and the block intertwiner is well defined."""
    return np.diag(np.arange(dim, dtype=float)) + strength * random_hermitian(
        dim, seed
    )


def lowest_cluster(h, rank):
    """(eigenpairs, frame and energies of the lowest `rank` levels)."""
    w, v = np.linalg.eigh(h)
    return (w, v), v[:, :rank], w[:rank]


def test_defect_vanishes_for_exact_compression():
    dim, rank = 12, 4
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    q = block(dim, rank)
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=3 + seed)
        (w, v), p, energies = lowest_cluster(h, rank)
        psi = random_packet(dim, seed=9 + seed)

        # route 1: the eigenbasis itself intertwines P with the coordinate block
        u_eig = (v.conj().T @ p)[:rank]
        d1 = defect_curve(
            energies, p, u_eig, *np.linalg.eigh(np.diag(w[:rank])), psi, times
        )
        assert d1.max() < 1e-8
        oracle1 = dense_defect(h, np.diag(w), matrix(p), v.conj().T, psi, times)
        assert np.max(np.abs(d1 - oracle1)) < 1e-12

        # route 2: canonical intertwiner, effective operator = W H W^dag
        u = nagy_intertwiner(p[:rank])
        h_eff = u @ np.diag(energies) @ u.conj().T
        d2 = defect_curve(energies, p, u, *np.linalg.eigh(h_eff), psi, times)
        assert d2.max() < 1e-8
        wd = dense_nagy(matrix(p), matrix(q))
        oracle2 = dense_defect(h, wd @ h @ wd.conj().T, matrix(p), wd, psi, times)
        assert np.max(np.abs(d2 - oracle2)) < 1e-12


def test_defect_zero_time_and_bound():
    dim, rank = 10, 3
    times = np.linspace(0.0, 3.0, 13)
    q = block(dim, rank)
    zero = np.linalg.eigh(np.zeros((rank, rank)))
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=4 + seed)
        _, p, energies = lowest_cluster(h, rank)
        u = nagy_intertwiner(p[:rank])
        psi = random_packet(dim, seed=5 + seed)
        d = defect_curve(energies, p, u, *zero, psi, times)
        assert d[0] < 1e-12
        assert d.max() <= 2.0 + 1e-12
        single = defect_curve(energies, p, u, *zero, psi, [1.5])[0]
        assert abs(single - d[np.where(times == 1.5)[0][0]]) < 1e-12
        wd = dense_nagy(matrix(p), matrix(q))
        oracle = dense_defect(h, np.zeros((dim, dim)), matrix(p), wd, psi, times)
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_defect_is_continuous_in_time():
    dim, rank = 10, 3
    delta = 1e-4
    times = [0.7, 0.7 + delta, 1.9, 1.9 + delta]
    q = block(dim, rank)
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=6 + seed)
        h_eff = h[:rank, :rank]
        _, p, energies = lowest_cluster(h, rank)
        u = nagy_intertwiner(p[:rank])
        psi = random_packet(dim, seed=7 + seed)
        d = defect_curve(energies, p, u, *np.linalg.eigh(h_eff), psi, times)
        lipschitz = np.linalg.norm(h, 2) + np.linalg.norm(h_eff, 2)
        assert abs(d[1] - d[0]) <= 1.01 * delta * lipschitz
        assert abs(d[3] - d[2]) <= 1.01 * delta * lipschitz
        wd = dense_nagy(matrix(p), matrix(q))
        oracle = dense_defect(h, padded(h_eff, dim), matrix(p), wd, psi, times)
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_defect_rejects_orthogonal_start():
    _, p, energies = lowest_cluster(np.diag([0.0, 1.0, 2.0, 3.0]), 2)
    u = nagy_intertwiner(p[:2])
    psi = normalized([0.0, 0.0, 1.0, 0.0])
    w_eff, v_eff = np.linalg.eigh(np.eye(2))
    with pytest.raises(ConfigError, match="vanishes"):
        defect_curve(energies, p, u, w_eff, v_eff, psi, [0.0, 1.0])
    # every operand has to match the frame's d x r shape
    start = normalized([1.0, 0.0, 0.0, 0.0])
    for args in (
        (energies, p, u, np.ones(3), v_eff, start),
        (energies, p, u, w_eff, np.eye(3), start),
        (energies[:1], p, u, w_eff, v_eff, start),
        (energies, p, np.eye(3), w_eff, v_eff, start),
        (energies, p, u, w_eff, v_eff, start[:3]),
    ):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            defect_curve(*args, [0.0, 1.0])


def test_fit_slope_through_origin():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    assert abs(fit_slope_through_origin(times, 0.25 * times) - 0.25) < 1e-14
    with pytest.raises(ConfigError):
        fit_slope_through_origin([0.0, 0.0], [0.0, 0.0])
    # t^2 overflows: the slope would read 0 for any defect
    with pytest.raises(ConfigError, match="not finite"):
        fit_slope_through_origin([1e155], [1.0])


def test_defect_scaling_single_level_basis():
    # with one retained level the lowest cluster is the whole spectrum and the
    # compression is the full operator, so the defect is pure roundoff
    (row,) = defect_scaling(
        [10.0], FourierPotential.cosine_xy(1.0), times=(0.0, 0.5), n_levels=1, n_cells=1
    )
    assert row.separated
    assert row.max_defect < 1e-10


def test_defect_scaling_free_case_is_exact():
    # with no potential the lowest-level compression is the exact restriction,
    # so every defect reading is pure roundoff
    report = defect_scaling(
        [10.0, 20.0],
        FourierPotential.cosine_xy(0.0),
        times=(0.0, 0.5, 1.0),
        n_levels=3,
        n_cells=4,
        seed=7,
    )
    assert [r.n_flux for r in report] == [51, 102]
    for row, b_req in zip(report, (10.0, 20.0)):
        assert row.field_requested == b_req
        assert abs(row.field - b_req) < 0.2
        assert row.separated
        assert row.projector_distance < 1e-10
        assert row.defect_zero < 1e-10
        assert row.max_defect < 1e-10
        assert abs(row.slope) < 1e-10


def test_defect_scaling_report_monotone_filter():
    def row(slope, separated):
        return DefectRow(
            field_requested=1.0,
            field=1.0,
            n_flux=3,
            projector_distance=0.0,
            defect_zero=0.0,
            max_defect=slope,
            slope=slope,
            separated=separated,
        )

    good = [row(0.5, True), row(9.0, False), row(0.2, True)]
    assert decreasing_gate(good, "slope").passed
    bad = [row(0.2, True), row(0.5, True)]
    assert not decreasing_gate(bad, "slope").passed


def test_defect_scaling_matches_dense_oracle():
    # tiny tori (d = 3 n_flux <= 12) where the dense pipeline is cheap:
    # projector_distance is ||P - Q||, and the curve uses the dense Nagy
    # formula with d x d propagators and the zero-padded effective operator
    potential = FourierPotential.cosine_xy(1.0)
    times = (0.0, 0.5, 1.0, 2.0)
    for b_req in (6.3, 9.5, 12.6):
        for seed in range(20):
            (row,) = defect_scaling(
                [b_req], potential, times, n_levels=3, n_cells=1, seed=seed
            )
            basis = torus_basis(b_req, 3, 1)
            h = dense_hamiltonian(basis, potential)
            r, dim = basis.n_flux, basis.dim
            assert dim <= 12
            v = np.linalg.eigh(h)[1][:, :r]
            pm = v @ v.conj().T
            qm = padded(np.eye(r), dim)
            h_eff = padded(h[:r, :r], dim)
            psi = random_packet(dim, seed)
            curve = dense_defect(
                h, h_eff, pm, dense_nagy(pm, qm), psi, times
            )
            assert row.separated
            assert abs(row.projector_distance - np.linalg.norm(pm - qm, 2)) < 1e-12
            assert abs(row.defect_zero - curve[0]) < 1e-12
            assert abs(row.max_defect - curve.max()) < 1e-12
            assert abs(row.slope - fit_slope_through_origin(times, curve)) < 1e-12


def test_defect_zero_is_measured_off_grid(monkeypatch):
    # d(0) comes from the propagation even when 0 is not on the time grid:
    # an offset added to every reading has to show up in defect_zero
    real = dynamics.defect_curve
    monkeypatch.setattr(dynamics, "defect_curve", lambda *args: real(*args) + 1.0)
    (row,) = defect_scaling(
        [10.0], FourierPotential.cosine_xy(1.0), times=(1.0, 2.0), n_levels=3,
        n_cells=2,
    )
    assert abs(row.defect_zero - 1.0) < 1e-10


def test_non_orthonormal_frame_fails_the_frame_check(monkeypatch, capsys):
    # eigenvectors stretched by 1e-8 give ||V^dag V - I||_F ~ 2e-8 sqrt(r)
    real = np.linalg.eigh

    def stretched(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        return w, (1.0 + 1e-8) * v

    monkeypatch.setattr(dynamics.np.linalg, "eigh", stretched)
    with pytest.raises(NumericalCheckError, match="not orthonormal"):
        defect_scaling(
            [5.0], FourierPotential.cosine_xy(1.0), times=(0.5,), n_levels=3,
            n_cells=2,
        )
    argv = ["dynamics-defect", "--B", "5", "--nlevels", "3", "--ncells", "2"]
    assert main(argv) == 3
    assert "not orthonormal" in capsys.readouterr().err


def test_eigensolve_budget(monkeypatch):
    # defect_scaling: per field, one batched eigh per sector size and rank
    # of the orbit representatives, plus one per stack of their one-level
    # corners, no eigvalsh and no d x d 2-norm (an SVD); strong_field_report:
    # the same batches, eigenvalues only. B = 5 on 2 cells: n_flux 6 in
    # g = 2 cosets, which the guiding shift by 3 maps onto each other, so
    # coset 0 alone is solved. The inversion maps it to itself; each of 3
    # levels x 3 guiding rows has one fixed row and one pair, so it splits
    # into an S = +1 half of 2 + 1 + 2 rows (rank 2) and an S = -1 half of
    # 1 + 2 + 1 (rank 1). B = 10: n_flux 13, g = 1, one fixed row and 6
    # pairs per level: halves of 7 + 6 + 7 (rank 7) and 6 + 7 + 6 (rank 6)
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            order = kwargs.get("ord", args[0] if args else None)
            calls.append((name, np.shape(a), order))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    potential = FourierPotential.cosine_xy(1.0)
    report = defect_scaling(
        [5.0, 10.0], potential, times=(0.5, 1.0), n_levels=3, n_cells=2
    )
    assert all(row.separated for row in report)
    assert [row.n_flux for row in report] == [6, 13]
    expected = [(1, 5, 5), (1, 4, 4), (1, 2, 2), (1, 1, 1),
                (1, 20, 20), (1, 19, 19), (1, 7, 7), (1, 6, 6)]
    for row in report:
        dim = 3 * row.n_flux
        assert not any(
            name == "norm" and shape == (dim, dim) and order == 2
            for name, shape, order in calls
        )
    assert [shape for name, shape, _ in calls if name == "eigh"] == expected
    assert not any(name == "eigvalsh" for name, _, _ in calls)

    calls.clear()
    strong_field_report([5.0, 10.0], potential, n_levels=3, n_cells=2)
    assert not any(name == "eigh" for name, _, _ in calls)
    assert [shape for name, shape, _ in calls if name == "eigvalsh"] == expected


def test_even_potentials_take_the_real_solve(solve_dtypes):
    # cos(2 pi x) + cos(2 pi y) is even in x, so every coset block is exactly
    # real and both experiments solve only real symmetric stacks; sin(2 pi x)
    # is not, and keeps the complex Hermitian solve
    fields, times = (10.0, 20.0, 40.0), (0.5, 1.0)
    cosine = FourierPotential.cosine_xy(1.0)
    defect_scaling(fields, cosine, times, n_levels=2, n_cells=4)
    strong_field_report(fields, cosine, n_levels=2, n_cells=4)
    assert solve_dtypes and set(solve_dtypes) == {np.dtype(np.float64)}
    solve_dtypes.clear()
    sine = FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j)])
    defect_scaling(fields, sine, times, n_levels=2, n_cells=4)
    strong_field_report(fields, sine, n_levels=2, n_cells=4)
    assert solve_dtypes and set(solve_dtypes) == {np.dtype(np.complex128)}


def test_defect_rows_match_the_unsplit_solve():
    # B = 10, 20, 40 on 4 cells split into g = 1, 2 and 4 cosets; the rows
    # must not depend on the split beyond roundoff (defect_zero is roundoff
    # itself and is held only to its gate)
    potential = FourierPotential.cosine_xy(1.0)
    args = ([10.0, 20.0, 40.0], potential, (0.5, 1.0, 2.0))
    split = defect_scaling(*args, n_levels=2, n_cells=4)
    unsplit = scattered_defect_scaling(*args, 2, 4, solve=unsplit_frame)
    assert [row.n_flux for row in split] == [51, 102, 204]
    for got, want in zip(split, unsplit):
        assert got.separated and want.separated
        for name in ("projector_distance", "max_defect", "slope"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), name
        assert max(got.defect_zero, want.defect_zero) < 1e-10


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
def test_inversion_halves_match_the_unsplit_solve(n_levels, n_cells):
    # the cosine potential is even, so every self-paired coset is solved as
    # its two inversion halves; odd level counts make halves of unequal
    # size, and the halves of one size can differ in rank. Fields give
    # n_flux 7, 8, 12 and 13, so both kinds of self-paired coset appear
    potential = FourierPotential.cosine_xy(1.0)
    fields = [math.pi * n / n_cells**2 for n in (7, 8, 12, 13)]
    times = (0.5, 1.0, 2.0)
    split = defect_scaling(fields, potential, times, n_levels=n_levels, n_cells=n_cells)
    unsplit = scattered_defect_scaling(
        fields, potential, times, n_levels, n_cells, solve=unsplit_frame)
    for got, want in zip(split, unsplit):
        assert got.separated == want.separated
        if not got.separated:
            continue
        for name in ("projector_distance", "max_defect", "slope"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), name
        assert max(got.defect_zero, want.defect_zero) < 1e-10


@pytest.mark.parametrize(
    "potential",
    [FourierPotential.cosine_xy(0.0), FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j)])],
    ids=["free", "sine"],
)
def test_trivial_and_rankless_sectors_match_the_unsplit_solve(potential):
    # no harmonics: g = n_flux cosets of one guiding row, the two self-paired
    # ones split into even and odd levels, and an odd-level half has rank 0,
    # so it holds none of the cluster and drops out of the dynamics.
    # sin(2 pi x) is odd: one sector per coset and complex frames
    fields, times = [5.0, 10.0], (0.5, 1.0)
    split = defect_scaling(fields, potential, times, n_levels=3, n_cells=2)
    unsplit = scattered_defect_scaling(fields, potential, times, 3, 2,
                                       solve=unsplit_frame)
    for got, want in zip(split, unsplit):
        assert got.separated and want.separated
        for name in ("projector_distance", "max_defect", "slope"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), name
        assert max(got.defect_zero, want.defect_zero) < 1e-10


def test_defect_workload_solve_plan(monkeypatch, tmp_path):
    # the benchmark's defect workload, B = 10, 20, 40 on 4 cells with 6
    # levels: n_flux 51, 102, 204 in g = 1, 2, 4 cosets of 306 rows. The
    # guiding shift by n_flux/g = 51 maps coset c onto c + 51 mod g, so each
    # field's cosets form h = gcd(51, g) = 1 orbit and coset 0 alone is
    # solved. It is its own inversion image and splits into halves of 153
    # rows, ranks 26 and 25. Each field solves one stack per half, then one
    # per stack of the one-level corners: no 306-row solve
    shapes = []
    real = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    argv = ["dynamics-defect", "--B", "10,20,40", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 0
    assert shapes == [(1, 153, 153), (1, 153, 153), (1, 26, 26), (1, 25, 25)] * 3


@pytest.mark.parametrize("n_cells", [2, 3, 4])
def test_sector_rows_match_the_scattered_frame_oracle(n_cells):
    # the per-sector frames, polar factors, distances and evolution against
    # the whole d x n_flux frame scattered from the same coset solve, over a
    # field sweep that takes g through every divisor of n_cells
    potential = FourierPotential.cosine_xy(1.0)
    fields, times = np.arange(1.0, 60.0, 1.5), (0.5, 1.0, 2.0)
    rows = defect_scaling(fields, potential, times, n_levels=3, n_cells=n_cells)
    oracle = scattered_defect_scaling(fields, potential, times, 3, n_cells)
    for field, got, want in zip(fields, rows, oracle):
        assert (got.field, got.n_flux) == (want.field, want.n_flux), field
        assert got.separated and want.separated, field
        for name in ("projector_distance", "max_defect", "slope"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), (field, name)
        assert max(got.defect_zero, want.defect_zero) < 1e-10, field


@pytest.mark.parametrize(("n_flux", "n_cells", "orbits"),
                         [(8, 4, 2), (18, 6, 3), (16, 4, 4), (20, 2, 2), (20, 4, 1)])
def test_orbit_members_match_the_unsplit_solve(n_flux, n_cells, orbits):
    # g cosets in h shift orbits: each member's packet, gathered into its
    # representative's coordinates, against the representative's frames,
    # gives the rows of the dense unsplit solve, for the even cosine and an
    # odd potential with complex frames
    field = math.pi * n_flux / n_cells**2
    basis = torus_basis(field, 3, n_cells)
    times = (0.5, 1.0, 2.0)
    for potential in (FourierPotential.cosine_xy(1.0),
                      FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j), (0, 1, 1.0),
                                        (0, -1, 1.0)])):
        rows = continuum.orbit_rows(basis, potential)
        assert continuum.coset_count(basis, potential) // len(rows) == orbits
        got = defect_scaling([field], potential, times, n_levels=3, n_cells=n_cells)
        want = scattered_defect_scaling([field], potential, times, 3, n_cells,
                                        solve=unsplit_frame)
        for a_row, b_row in zip(got, want):
            assert a_row.separated and b_row.separated
            for name in ("projector_distance", "max_defect", "slope"):
                a, b = getattr(a_row, name), getattr(b_row, name)
                assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), name
            assert max(a_row.defect_zero, b_row.defect_zero) < 1e-10


def test_member_packets_broadcast_against_shared_frames():
    # psi with a leading member axis against frames without one gives the
    # curve of the frames copied once per member, and copies no frame
    rng = np.random.default_rng(3)
    members, sectors, dim, rank = 3, 2, 6, 2
    h = [block_dominant_hamiltonian(dim, seed) for seed in range(sectors)]
    frames = np.stack([np.linalg.eigh(m)[1][:, :rank] for m in h])
    energies = np.stack([np.linalg.eigh(m)[0][:rank] for m in h])
    u = nagy_intertwiner(frames[:, :rank])
    w_eff, v_eff = np.linalg.eigh(np.stack([m[:rank, :rank] for m in h]))
    psi = rng.standard_normal((members, sectors, dim)) + 0j
    times = (0.0, 0.5, 1.5)
    got = defect_curve(energies, frames, u, w_eff, v_eff, psi, times)

    def tiled(x):
        return np.broadcast_to(x, (members,) + x.shape).reshape((-1,) + x.shape[1:])

    want = defect_curve(*(tiled(x) for x in (energies, frames, u, w_eff, v_eff)),
                        psi.reshape(-1, dim), times)
    assert np.max(np.abs(got - want)) <= 1e-15
    with pytest.raises(ConfigError, match="dimension mismatch"):
        defect_curve(energies, frames, u, w_eff, v_eff, psi[..., 1:], times)


def test_uneven_sector_exits_4_before_any_svd(monkeypatch, capsys):
    # B = 5 on 2 cells: n_flux 6 in g = 2 cosets in one shift orbit, so
    # coset 0 stands for both. The inversion splits it into an S = +1 half
    # of 5 rows (rank 2) and an S = -1 half of 4 (rank 1), solved as a
    # (1, 5, 5) and a (1, 4, 4) stack. Moving sector 0's lowest level-1
    # eigenvalue below the cluster and sector 1's one cluster eigenvalue
    # above it keeps the gap but gives sector 0 three of the lowest six (its
    # orbit holds them twice): its overlap block is 2 x 3
    real = np.linalg.eigh

    def uneven(a, *args, **kwargs):
        w, v = real(a, *args, **kwargs)
        if np.shape(a) in ((1, 5, 5), (1, 4, 4)):
            w = w.copy()
            if np.shape(a) == (1, 5, 5):
                w[0, 2] = w.min() - 1.0
            else:
                w[0, 0] = w.max() + 1.0
        return w, v

    svd_calls = []
    real_svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", uneven)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    potential = FourierPotential.cosine_xy(1.0)
    message = "sector 0 of 2 (coset 0, S = +1) holds 3 of the lowest 6"
    with pytest.raises(InfeasibleModelError, match=re.escape(message)):
        defect_scaling([5.0], potential, (0.5,), n_levels=3, n_cells=2)
    argv = ["dynamics-defect", "--B", "5", "--nlevels", "3", "--ncells", "2"]
    assert main(argv) == 4
    assert message in capsys.readouterr().err
    assert svd_calls == []


def test_one_hermiticity_check_per_field(monkeypatch):
    # sector_blocks checks the g cosets of each field once, on their guiding
    # bands, the cosets never built dense included, and never a dense block
    # or a d x d matrix; the one-level operator is sliced from the checked
    # blocks and the eigensolves do not check again. The band reads are the
    # Hermiticity deviation, the check scale and the C2 deviation, each of
    # the field's g cosets
    shapes = []
    real = spectra.check_hermitian

    def counted(matrix):
        shapes.append(np.shape(matrix))
        real(matrix)

    checked = []
    real_bands = continuum._mirror_deviations

    def per_coset(bands, g, mirror):
        checked.append(g)
        return real_bands(bands, g, mirror)

    monkeypatch.setattr(spectra, "check_hermitian", counted)
    monkeypatch.setattr(continuum, "_mirror_deviations", per_coset)
    report = defect_scaling(
        [5.0, 10.0], FourierPotential.cosine_xy(1.0), times=(0.5, 1.0), n_levels=3,
        n_cells=2,
    )
    assert [row.n_flux for row in report] == [6, 13]  # g = 2, then g = 1
    assert checked == [math.gcd(row.n_flux, 2) for row in report for _ in range(3)]
    assert shapes == []


@pytest.mark.parametrize("experiment", ["defect_scaling", "strong_field_report"])
def test_one_coset_build_per_field(experiment, monkeypatch):
    # the one-level operator's blocks are sliced from the full ones, so each
    # field builds its guiding bands once, unseparated fields included
    built = []
    real = continuum.guiding_bands

    def counted(basis, potential):
        built.append((basis.field, basis.n_levels))
        return real(basis, potential)

    monkeypatch.setattr(continuum, "guiding_bands", counted)
    fields = [5.0, 10.0, 20.0]
    potential = FourierPotential.cosine_xy(1.0)
    if experiment == "defect_scaling":
        rows = defect_scaling(fields, potential, (0.5,), n_levels=3, n_cells=2)
    else:
        rows = strong_field_report(fields, potential, n_levels=3, n_cells=2)
    assert all(row.separated for row in rows)
    assert built == [(row.field, 3) for row in rows]


@pytest.mark.parametrize("experiment", ["defect_scaling", "strong_field_report"])
def test_operator_is_never_built_whole(experiment, traced_peak):
    # B = 40 on 4 cells with 6 levels: d = 1224 in g = 4 cosets. One whole
    # d x d complex operator takes 22.9 MB; its coset blocks take a quarter
    potential = FourierPotential.cosine_xy(1.0)
    whole = 1224 * 1224 * 16
    assert torus_basis(40.0, 6, 4).dim == 1224
    if experiment == "defect_scaling":
        peak = traced_peak(
            lambda: defect_scaling(
                [40.0], potential, (0.5, 1.0), n_levels=6, n_cells=4
            )
        )
    else:
        peak = traced_peak(
            lambda: strong_field_report([40.0], potential, n_levels=6, n_cells=4)
        )
    assert peak < whole, f"peak {peak / 1e6:.1f} MB"
