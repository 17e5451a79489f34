"""Tests for time evolution, projector frames, intertwiners, defects."""

import math

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
    eigh_hermitian,
    field_operator,
    fit_slope_through_origin,
    hashed_normal,
    lll_effective,
    nagy_intertwiner,
    projector_distance,
    random_packet,
    strong_field_report,
)
from fluxlab import continuum, dynamics, spectra
from fluxlab.cli import decreasing_gate, main
from oracles import dense_eigh


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
    assert np.linalg.norm(nagy_intertwiner(p, p) - np.eye(2)) < 1e-12
    # a non-unitary polar factor fails the unitarity check, not a config check
    real = np.linalg.svd

    def shrunk(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        return u, s, 0.5 * vh

    monkeypatch.setattr(np.linalg, "svd", shrunk)
    with pytest.raises(NumericalCheckError, match="not unitary"):
        nagy_intertwiner(p, p)


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
        u = nagy_intertwiner(p, p)
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
        u = nagy_intertwiner(p, q)
        wv = q @ u
        assert np.linalg.norm(matrix(wv) - matrix(q), 2) < 1e-10
        assert np.linalg.norm(u @ u.conj().T - np.eye(3), 2) < 1e-10
        # the factored intertwiner is the dense one restricted to ran P
        dense = dense_nagy(matrix(p), matrix(q))
        assert np.linalg.norm(dense @ p - wv) < 1e-12
        exact = np.linalg.norm(matrix(p) - matrix(q), 2)
        assert abs(projector_distance(p, q) - exact) < 1e-12


def test_nagy_rank_mismatch_rejected():
    with pytest.raises(InfeasibleModelError):
        nagy_intertwiner(block(6, 2), block(6, 3))
    with pytest.raises(ConfigError):
        nagy_intertwiner(block(6, 2), block(7, 2))
    # orthogonal ranges: ||P - Q|| = 1
    with pytest.raises(InfeasibleModelError, match=">= 1"):
        nagy_intertwiner(block(4, 2), np.eye(4)[:, 2:])


def block_dominant_hamiltonian(dim, seed, strength=0.05):
    """Diagonal ladder plus a weak perturbation, so the low cluster stays
    near the first coordinates and the block intertwiner is well defined."""
    return np.diag(np.arange(dim, dtype=float)) + strength * random_hermitian(
        dim, seed
    )


def lowest_cluster(h, rank):
    """(eigenpairs, frame and energies of the lowest `rank` levels)."""
    w, v = eigh_hermitian(h)
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
        d1 = defect_curve(energies, p, u_eig, np.diag(w[:rank]), psi, times)
        assert d1.max() < 1e-8
        oracle1 = dense_defect(h, np.diag(w), matrix(p), v.conj().T, psi, times)
        assert np.max(np.abs(d1 - oracle1)) < 1e-12

        # route 2: canonical intertwiner, effective operator = W H W^dag
        u = nagy_intertwiner(p, q)
        d2 = defect_curve(
            energies, p, u, u @ np.diag(energies) @ u.conj().T, psi, times
        )
        assert d2.max() < 1e-8
        wd = dense_nagy(matrix(p), matrix(q))
        oracle2 = dense_defect(h, wd @ h @ wd.conj().T, matrix(p), wd, psi, times)
        assert np.max(np.abs(d2 - oracle2)) < 1e-12


def test_defect_zero_time_and_bound():
    dim, rank = 10, 3
    times = np.linspace(0.0, 3.0, 13)
    q = block(dim, rank)
    zero = np.zeros((rank, rank))
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=4 + seed)
        _, p, energies = lowest_cluster(h, rank)
        u = nagy_intertwiner(p, q)
        psi = random_packet(dim, seed=5 + seed)
        d = defect_curve(energies, p, u, zero, psi, times)
        assert d[0] < 1e-12
        assert d.max() <= 2.0 + 1e-12
        single = defect_curve(energies, p, u, zero, psi, [1.5])[0]
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
        u = nagy_intertwiner(p, q)
        psi = random_packet(dim, seed=7 + seed)
        d = defect_curve(energies, p, u, h_eff, psi, times)
        lipschitz = np.linalg.norm(h, 2) + np.linalg.norm(h_eff, 2)
        assert abs(d[1] - d[0]) <= 1.01 * delta * lipschitz
        assert abs(d[3] - d[2]) <= 1.01 * delta * lipschitz
        wd = dense_nagy(matrix(p), matrix(q))
        oracle = dense_defect(h, padded(h_eff, dim), matrix(p), wd, psi, times)
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_defect_rejects_orthogonal_start():
    _, p, energies = lowest_cluster(np.diag([0.0, 1.0, 2.0, 3.0]), 2)
    u = nagy_intertwiner(p, p)
    psi = normalized([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ConfigError, match="vanishes"):
        defect_curve(energies, p, u, np.eye(2), psi, [0.0, 1.0])
    # every operand has to match the frame's d x r shape
    start = normalized([1.0, 0.0, 0.0, 0.0])
    for args in (
        (energies, p, u, np.eye(3), start),
        (energies[:1], p, u, np.eye(2), start),
        (energies, p, np.eye(3), np.eye(2), start),
        (energies, p, u, np.eye(2), start[:3]),
    ):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            defect_curve(*args, [0.0, 1.0])


def test_fit_slope_through_origin():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    assert abs(fit_slope_through_origin(times, 0.25 * times) - 0.25) < 1e-14
    with pytest.raises(ConfigError):
        fit_slope_through_origin([0.0, 0.0], [0.0, 0.0])


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
            ham = field_operator(b_req, potential, 3, 1)
            basis, h = ham.basis, ham.matrix
            r, dim = basis.n_flux, basis.dim
            assert dim <= 12
            v = np.linalg.eigh(h)[1][:, :r]
            pm = v @ v.conj().T
            qm = padded(np.eye(r), dim)
            h_eff = padded(
                2.0 * basis.field * np.eye(r) + lll_effective(basis, potential), dim
            )
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
    # defect_scaling: per field, one (d/g) x (d/g) eigh for each of the g
    # guiding-centre cosets plus one r x r eigh of the effective operator,
    # no eigvalsh and no d x d 2-norm (an SVD); strong_field_report:
    # eigenvalues only
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
    assert [row.n_flux for row in report] == [6, 13]  # g = 2, then g = 1
    expected = []
    for row in report:
        dim = 3 * row.n_flux
        g = math.gcd(row.n_flux, 2)
        expected += [(dim // g, dim // g)] * g + [(row.n_flux, row.n_flux)]
        assert not any(
            name == "norm" and shape == (dim, dim) and order == 2
            for name, shape, order in calls
        )
    assert [shape for name, shape, _ in calls if name == "eigh"] == expected
    assert not any(name == "eigvalsh" for name, _, _ in calls)

    calls.clear()
    strong_field_report([5.0, 10.0], potential, n_levels=3, n_cells=2)
    assert not any(name == "eigh" for name, _, _ in calls)


def test_defect_rows_match_the_unsplit_solve(monkeypatch):
    # B = 10, 20, 40 on 4 cells split into g = 1, 2 and 4 cosets; the rows
    # must not depend on the split beyond roundoff (defect_zero is roundoff
    # itself and is held only to its gate)
    potential = FourierPotential.cosine_xy(1.0)
    args = ([10.0, 20.0, 40.0], potential, (0.5, 1.0, 2.0))
    split = defect_scaling(*args, n_levels=2, n_cells=4)
    monkeypatch.setattr(
        dynamics, "coset_eigh", lambda h, basis, pot, rank=None: dense_eigh(h, rank)
    )
    unsplit = defect_scaling(*args, n_levels=2, n_cells=4)
    assert [row.n_flux for row in split] == [51, 102, 204]
    for got, want in zip(split, unsplit):
        assert got.separated and want.separated
        for name in ("projector_distance", "max_defect", "slope"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-10 + 1e-10 * abs(b), name
        assert max(got.defect_zero, want.defect_zero) < 1e-10


def test_one_hermiticity_check_per_field(monkeypatch):
    # continuum_hamiltonian checks each d x d H once; the eigensolve in
    # defect_scaling does not check it again
    shapes = []
    real = spectra.check_hermitian

    def counted(matrix):
        shapes.append(np.shape(matrix))
        real(matrix)

    monkeypatch.setattr(spectra, "check_hermitian", counted)
    monkeypatch.setattr(continuum, "check_hermitian", counted)
    report = defect_scaling(
        [5.0, 10.0], FourierPotential.cosine_xy(1.0), times=(0.5, 1.0), n_levels=3,
        n_cells=2,
    )
    for row in report:
        dim = 3 * row.n_flux
        assert shapes.count((dim, dim)) == 1
