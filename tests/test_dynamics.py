"""Tests for time evolution, spectral projectors, intertwiners, defects."""

import numpy as np
import pytest

from fluxlab import (
    ConfigError,
    DefectRow,
    FourierPotential,
    InfeasibleModelError,
    IntertwinerUnitary,
    NumericalCheckError,
    Projector,
    WavePacket,
    continuum_hamiltonian,
    defect_curve,
    defect_scaling,
    eigh_hermitian,
    field_operator,
    fit_slope_through_origin,
    hashed_normal,
    lll_effective,
    nagy_intertwiner,
    projector_distance,
    spectral_projection,
    strong_field_report,
    torus_basis,
)
from fluxlab import continuum, dynamics, spectra
from fluxlab.cli import decreasing_gate


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def test_wave_packet_validation():
    with pytest.raises(ConfigError):
        WavePacket(np.array([1.0, 1.0]))
    with pytest.raises(ConfigError):
        WavePacket.normalized(np.zeros(4))
    psi = WavePacket.normalized([3.0, 4.0])
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-12
    assert psi.dim == 2
    a = WavePacket.random(16, seed=5)
    b = WavePacket.random(16, seed=5)
    assert np.array_equal(a.vector, b.vector)
    assert not np.array_equal(a.vector, WavePacket.random(16, seed=6).vector)


def test_wave_packet_stream_is_counter_based():
    # real parts take counters 0..d-1 of hashed_normal, imaginary parts d..2d-1
    psi = WavePacket.random(4, seed=7)
    z = hashed_normal(7, np.arange(8))
    expected = z[:4] + 1j * z[4:]
    assert np.array_equal(psi.vector, expected / np.linalg.norm(expected))
    pinned = [
        0.11707639112387154 - 0.1613600873672875j,
        -0.38365608906530674 - 0.20078534983431248j,
        0.4981533225465174 - 0.5800989980349774j,
        -0.24715820246323106 + 0.3563573096361048j,
    ]
    assert np.max(np.abs(psi.vector - pinned)) < 1e-14
    negative = WavePacket.random(3, seed=-1).vector
    assert abs(negative[0] - (0.6431747954403726 + 0.11323270843225144j)) < 1e-14


def test_projector_validation():
    with pytest.raises(ConfigError):
        Projector(np.zeros((2, 3)))
    with pytest.raises(NumericalCheckError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NumericalCheckError):
        Projector(0.5 * np.eye(3))
    p = Projector.block(5, 2)
    assert p.rank == 2
    assert p.dim == 5
    assert np.array_equal(np.diag(p.matrix).real, [1, 1, 0, 0, 0])


def test_intertwiner_validation():
    p = Projector.block(4, 2)
    q = Projector(np.eye(4)[:, 2:])
    with pytest.raises(NumericalCheckError):
        IntertwinerUnitary(matrix=0.5 * np.eye(2), source=p, target=p)
    with pytest.raises(ConfigError):
        IntertwinerUnitary(matrix=np.eye(2), source=p, target=Projector.block(4, 3))
    with pytest.raises(ConfigError):
        IntertwinerUnitary(matrix=np.eye(3), source=p, target=p)
    # the factored swap: W V_p = V_q U carries P onto Q
    w = IntertwinerUnitary(matrix=np.eye(2), source=p, target=q)
    wv = q.frame @ w.matrix
    assert np.allclose(wv @ wv.conj().T, q.matrix)


def evolve(h, psi, t):
    """Dense oracle: e^{-i t H} psi via a full eigendecomposition."""
    h = np.asarray(h)
    if h.shape[0] != psi.dim:
        raise ConfigError(
            f"dimension mismatch: operator {h.shape[0]}, state {psi.dim}"
        )
    w, v = np.linalg.eigh(h)
    return WavePacket(v @ (np.exp(-1j * float(t) * w) * (v.conj().T @ psi.vector)))


def dense_nagy(pm, qm):
    """Dense oracle: W = (I - (Q - P)^2)^{-1/2} (Q P + (I - Q)(I - P))."""
    eye = np.eye(pm.shape[0])
    w_core, v_core = np.linalg.eigh(eye - (qm - pm) @ (qm - pm))
    inv_half = (v_core * (1.0 / np.sqrt(w_core))[None, :]) @ v_core.conj().T
    return inv_half @ (qm @ pm + (eye - qm) @ (eye - pm))


def dense_defect(h_full, h_eff, pm, wmat, psi, times):
    """Dense oracle for defect_curve with d x d operators and intertwiner."""
    start = WavePacket.normalized(pm @ psi.vector)
    moved = WavePacket(wmat @ start.vector)
    return np.array(
        [
            np.linalg.norm(
                evolve(h_full, start, t).vector
                - wmat.conj().T @ evolve(h_eff, moved, t).vector
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
    psi = WavePacket.random(9, seed=1)
    out = evolve(h, psi, 0.0)
    assert np.linalg.norm(out.vector - psi.vector) < 1e-12


def test_evolve_diagonal_phases():
    h = np.diag([1.0, 2.0, 5.0])
    psi = WavePacket.normalized([1.0, 1.0, 1.0])
    out = evolve(h, psi, 0.25)
    expected = psi.vector * np.exp(-1j * 0.25 * np.array([1.0, 2.0, 5.0]))
    assert np.linalg.norm(out.vector - expected) < 1e-12


def test_evolve_unitary_and_group_law():
    h = random_hermitian(12, seed=2)
    psi = WavePacket.random(12, seed=3)
    for t in (0.3, 1.7, -0.9):
        out = evolve(h, psi, t)
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-10
        back = evolve(h, out, -t)
        assert np.linalg.norm(back.vector - psi.vector) < 1e-10
    ab = evolve(h, evolve(h, psi, 0.4), 0.8)
    direct = evolve(h, psi, 1.2)
    assert np.linalg.norm(ab.vector - direct.vector) < 1e-8


def test_evolve_dimension_mismatch():
    with pytest.raises(ConfigError):
        evolve(np.eye(3), WavePacket.random(4, seed=0), 1.0)


def test_spectral_projection_window_extremes():
    h = np.diag([0.0, 1.0, 2.0])
    full = spectral_projection(eigh_hermitian(h), (-1.0, 3.0))
    assert full.rank == 3
    assert np.allclose(full.matrix, np.eye(3))
    assert np.array_equal(full.energies, [0.0, 1.0, 2.0])
    empty = spectral_projection(eigh_hermitian(h), (0.2, 0.8))
    assert empty.rank == 0
    assert np.allclose(empty.matrix, 0.0)
    with pytest.raises(ConfigError):
        spectral_projection(eigh_hermitian(h), (2.0, 1.0))


def test_spectral_projection_commutes_with_operator():
    h = random_hermitian(30, seed=11)
    w = np.linalg.eigvalsh(h)
    window = (w[0] - 1.0, 0.5 * (w[9] + w[10]))
    p = spectral_projection(eigh_hermitian(h), window)
    assert p.rank == 10
    comm = p.matrix @ h - h @ p.matrix
    assert np.linalg.norm(comm, 2) < 1e-9
    assert np.linalg.norm(h @ p.frame - p.frame * p.energies[None, :]) < 1e-9


def test_spectral_projection_boundary_collision():
    h = np.diag([0.0, 1.0, 2.0])
    with pytest.raises(InfeasibleModelError):
        spectral_projection(eigh_hermitian(h), (1.0, 3.5))
    with pytest.raises(InfeasibleModelError):
        spectral_projection(eigh_hermitian(h), (-0.5, 2.0 + 1e-12))


def test_spectral_projection_lowest_landau_cluster():
    basis = torus_basis(10.0, 4, 4)
    n_flux = basis.n_flux
    ham = continuum_hamiltonian(basis, FourierPotential.cosine_xy(1.0))
    w = np.linalg.eigvalsh(ham.matrix)
    window = (float(w[0]) - 1.0, 0.5 * float(w[n_flux - 1] + w[n_flux]))
    p = spectral_projection(eigh_hermitian(ham.matrix), window)
    assert p.rank == n_flux
    assert np.linalg.norm(p.matrix @ ham.matrix - ham.matrix @ p.matrix, 2) < 1e-9


def random_frame(dim, rank, seed):
    return np.linalg.eigh(random_hermitian(dim, seed))[1][:, :rank]


def test_nagy_identity_for_equal_projectors():
    for seed in range(20):
        p = Projector(random_frame(6, 2, seed))
        w = nagy_intertwiner(p, p)
        assert np.linalg.norm(w.matrix - np.eye(2), 2) < 1e-12
        dense = dense_nagy(p.matrix, p.matrix)
        assert np.linalg.norm(dense - np.eye(6), 2) < 1e-12
        assert np.linalg.norm(dense @ p.frame - p.frame @ w.matrix) < 1e-12


def test_nagy_intertwines_rotated_projectors():
    p = Projector.block(8, 3)
    eps = 0.05
    for seed in range(40):
        a = random_hermitian(8, seed=seed)
        wa, va = np.linalg.eigh(a)
        u = (va * np.exp(1j * eps * wa)[None, :]) @ va.conj().T
        q = Projector(u @ p.frame)
        w = nagy_intertwiner(p, q)
        wv = q.frame @ w.matrix
        moved = wv @ wv.conj().T
        assert np.linalg.norm(moved - q.matrix, 2) < 1e-10
        assert np.linalg.norm(
            w.matrix @ w.matrix.conj().T - np.eye(3), 2
        ) < 1e-10
        # the factored intertwiner is the dense one restricted to ran P
        dense = dense_nagy(p.matrix, q.matrix)
        assert np.linalg.norm(dense @ p.frame - wv) < 1e-12
        exact = np.linalg.norm(p.matrix - q.matrix, 2)
        assert abs(projector_distance(p, q) - exact) < 1e-12


def test_nagy_rank_mismatch_rejected():
    with pytest.raises(InfeasibleModelError):
        nagy_intertwiner(Projector.block(6, 2), Projector.block(6, 3))
    with pytest.raises(ConfigError):
        nagy_intertwiner(Projector.block(6, 2), Projector.block(7, 2))


def block_dominant_hamiltonian(dim, seed, strength=0.05):
    """Diagonal ladder plus a weak perturbation, so the low cluster stays
    near the first coordinates and the block intertwiner is well defined."""
    return np.diag(np.arange(dim, dtype=float)) + strength * random_hermitian(
        dim, seed
    )


def lowest_cluster(h, rank):
    """(eigenpairs, spectral projector onto the lowest `rank` levels)."""
    w, v = eigh_hermitian(h)
    window = (float(w[0]) - 1.0, 0.5 * float(w[rank - 1] + w[rank]))
    return (w, v), spectral_projection((w, v), window)


def test_defect_vanishes_for_exact_compression():
    dim, rank = 12, 4
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    q = Projector.block(dim, rank)
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=3 + seed)
        (w, v), p = lowest_cluster(h, rank)
        psi = WavePacket.random(dim, seed=9 + seed)

        # route 1: the eigenbasis itself intertwines P with the coordinate block
        w_eig = IntertwinerUnitary(
            matrix=(v.conj().T @ p.frame)[:rank], source=p, target=q
        )
        d1 = defect_curve(np.diag(w[:rank]), w_eig, psi, times)
        assert d1.max() < 1e-8
        oracle1 = dense_defect(h, np.diag(w), p.matrix, v.conj().T, psi, times)
        assert np.max(np.abs(d1 - oracle1)) < 1e-12

        # route 2: canonical intertwiner, effective operator = W H W^dag
        w_can = nagy_intertwiner(p, q)
        u = w_can.matrix
        d2 = defect_curve(u @ np.diag(p.energies) @ u.conj().T, w_can, psi, times)
        assert d2.max() < 1e-8
        wd = dense_nagy(p.matrix, q.matrix)
        oracle2 = dense_defect(h, wd @ h @ wd.conj().T, p.matrix, wd, psi, times)
        assert np.max(np.abs(d2 - oracle2)) < 1e-12


def test_defect_zero_time_and_bound():
    dim, rank = 10, 3
    times = np.linspace(0.0, 3.0, 13)
    q = Projector.block(dim, rank)
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=4 + seed)
        _, p = lowest_cluster(h, rank)
        inter = nagy_intertwiner(p, q)
        psi = WavePacket.random(dim, seed=5 + seed)
        d = defect_curve(np.zeros((rank, rank)), inter, psi, times)
        assert d[0] < 1e-12
        assert d.max() <= 2.0 + 1e-12
        single = defect_curve(np.zeros((rank, rank)), inter, psi, [1.5])[0]
        assert abs(single - d[np.where(times == 1.5)[0][0]]) < 1e-12
        wd = dense_nagy(p.matrix, q.matrix)
        oracle = dense_defect(h, np.zeros((dim, dim)), p.matrix, wd, psi, times)
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_defect_is_continuous_in_time():
    dim, rank = 10, 3
    delta = 1e-4
    times = [0.7, 0.7 + delta, 1.9, 1.9 + delta]
    q = Projector.block(dim, rank)
    for seed in range(20):
        h = block_dominant_hamiltonian(dim, seed=6 + seed)
        h_eff = h[:rank, :rank]
        _, p = lowest_cluster(h, rank)
        inter = nagy_intertwiner(p, q)
        psi = WavePacket.random(dim, seed=7 + seed)
        d = defect_curve(h_eff, inter, psi, times)
        lipschitz = np.linalg.norm(h, 2) + np.linalg.norm(h_eff, 2)
        assert abs(d[1] - d[0]) <= 1.01 * delta * lipschitz
        assert abs(d[3] - d[2]) <= 1.01 * delta * lipschitz
        wd = dense_nagy(p.matrix, q.matrix)
        oracle = dense_defect(h, padded(h_eff, dim), p.matrix, wd, psi, times)
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_defect_rejects_orthogonal_start():
    _, p = lowest_cluster(np.diag([0.0, 1.0, 2.0, 3.0]), 2)
    inter = nagy_intertwiner(p, p)
    psi = WavePacket.normalized([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ConfigError):
        defect_curve(np.eye(2), inter, psi, [0.0, 1.0])
    # the full evolution is read from a spectral projection, never a bare frame
    block = Projector.block(4, 2)
    with pytest.raises(ConfigError):
        defect_curve(np.eye(2), nagy_intertwiner(block, block), psi, [0.0, 1.0])


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
            psi = WavePacket.random(dim, seed)
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


def test_eigensolve_budget(monkeypatch):
    # defect_scaling: one d x d eigh per field plus one r x r eigh of the
    # effective operator, no d x d eigvalsh and no d x d 2-norm (an SVD);
    # strong_field_report: eigenvalues only
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
    expected = []
    for row in report:
        dim = 3 * row.n_flux
        expected += [(dim, dim), (row.n_flux, row.n_flux)]
        assert not any(
            name == "norm" and shape == (dim, dim) and order == 2
            for name, shape, order in calls
        )
    assert [shape for name, shape, _ in calls if name == "eigh"] == expected
    assert not any(name == "eigvalsh" for name, _, _ in calls)

    calls.clear()
    strong_field_report([5.0, 10.0], potential, n_levels=3, n_cells=2)
    assert not any(name == "eigh" for name, _, _ in calls)


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
