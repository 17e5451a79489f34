"""Tests for time evolution, spectral projectors, intertwiners, defects."""

import numpy as np
import pytest

from fluxlab import (
    ConfigError,
    DefectRow,
    DefectScalingReport,
    FourierPotential,
    InfeasibleModelError,
    IntertwinerUnitary,
    NumericalCheckError,
    Projector,
    WavePacket,
    continuum_hamiltonian,
    defect_curve,
    defect_scaling,
    evolve,
    feasible_field,
    fit_slope_through_origin,
    landau_torus_basis,
    nagy_intertwiner,
    peierls_defect,
    spectral_projection,
)


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
    q = Projector(np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(NumericalCheckError):
        IntertwinerUnitary(matrix=0.5 * np.eye(4), source=p, target=p)
    with pytest.raises(NumericalCheckError):
        IntertwinerUnitary(matrix=np.eye(4), source=p, target=q)
    with pytest.raises(ConfigError):
        IntertwinerUnitary(matrix=np.eye(3), source=p, target=p)
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    w = IntertwinerUnitary(matrix=swap, source=p, target=q)
    assert np.allclose(w.matrix @ p.matrix @ w.matrix.conj().T, q.matrix)


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
    full = spectral_projection(h, (-1.0, 3.0))
    assert full.rank == 3
    assert np.allclose(full.matrix, np.eye(3))
    empty = spectral_projection(h, (0.2, 0.8))
    assert empty.rank == 0
    assert np.allclose(empty.matrix, 0.0)
    with pytest.raises(ConfigError):
        spectral_projection(h, (2.0, 1.0))


def test_spectral_projection_commutes_with_operator():
    h = random_hermitian(30, seed=11)
    w = np.linalg.eigvalsh(h)
    window = (w[0] - 1.0, 0.5 * (w[9] + w[10]))
    p = spectral_projection(h, window)
    assert p.rank == 10
    comm = p.matrix @ h - h @ p.matrix
    assert np.linalg.norm(comm, 2) < 1e-9


def test_spectral_projection_boundary_collision():
    h = np.diag([0.0, 1.0, 2.0])
    with pytest.raises(InfeasibleModelError):
        spectral_projection(h, (1.0, 3.5))
    with pytest.raises(InfeasibleModelError):
        spectral_projection(h, (-0.5, 2.0 + 1e-12))


def test_spectral_projection_lowest_landau_cluster():
    b_used, n_flux = feasible_field(10.0, 4)
    basis = landau_torus_basis(b_used, n_flux, 4)
    ham = continuum_hamiltonian(basis, FourierPotential.cosine_xy(1.0))
    w = np.linalg.eigvalsh(ham.matrix)
    window = (float(w[0]) - 1.0, 0.5 * float(w[n_flux - 1] + w[n_flux]))
    p = spectral_projection(ham.matrix, window)
    assert p.rank == n_flux
    assert np.linalg.norm(p.matrix @ ham.matrix - ham.matrix @ p.matrix, 2) < 1e-9


def test_nagy_identity_for_equal_projectors():
    p = Projector.block(6, 2)
    w = nagy_intertwiner(p, p)
    assert np.linalg.norm(w.matrix - np.eye(6), 2) < 1e-12


def test_nagy_intertwines_rotated_projectors():
    p = Projector.block(8, 3)
    eps = 0.05
    for seed in range(40):
        a = random_hermitian(8, seed=seed)
        wa, va = np.linalg.eigh(a)
        u = (va * np.exp(1j * eps * wa)[None, :]) @ va.conj().T
        q = Projector(u @ p.matrix @ u.conj().T)
        w = nagy_intertwiner(p, q)
        moved = w.matrix @ p.matrix @ w.matrix.conj().T
        assert np.linalg.norm(moved - q.matrix, 2) < 1e-10
        assert np.linalg.norm(
            w.matrix @ w.matrix.conj().T - np.eye(8), 2
        ) < 1e-10


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


def test_defect_vanishes_for_exact_compression():
    dim, rank = 12, 4
    h = block_dominant_hamiltonian(dim, seed=3)
    w, v = np.linalg.eigh(h)
    window = (float(w[0]) - 1.0, 0.5 * float(w[rank - 1] + w[rank]))
    p = spectral_projection(h, window)
    psi = WavePacket.random(dim, seed=9)
    times = [0.0, 0.5, 1.0, 2.0, 4.0]

    # route 1: the eigenbasis itself intertwines P with the coordinate block
    q = Projector.block(dim, rank)
    w_eig = IntertwinerUnitary(matrix=v.conj().T, source=p, target=q)
    d1 = defect_curve(h, np.diag(w), p, w_eig, psi, times)
    assert d1.max() < 1e-8

    # route 2: canonical intertwiner, effective operator = W H W^dag
    w_can = nagy_intertwiner(p, q)
    h_eff = w_can.matrix @ h @ w_can.matrix.conj().T
    d2 = defect_curve(h, h_eff, p, w_can, psi, times)
    assert d2.max() < 1e-8


def test_defect_zero_time_and_bound():
    dim, rank = 10, 3
    h = block_dominant_hamiltonian(dim, seed=4)
    w, _ = np.linalg.eigh(h)
    window = (float(w[0]) - 1.0, 0.5 * float(w[rank - 1] + w[rank]))
    p = spectral_projection(h, window)
    q = Projector.block(dim, rank)
    inter = nagy_intertwiner(p, q)
    psi = WavePacket.random(dim, seed=5)
    times = np.linspace(0.0, 3.0, 13)
    d = defect_curve(h, np.zeros((dim, dim)), p, inter, psi, times)
    assert d[0] < 1e-12
    assert d.max() <= 2.0 + 1e-12
    single = peierls_defect(h, np.zeros((dim, dim)), p, inter, psi, 1.5)
    assert abs(single - d[np.where(times == 1.5)[0][0]]) < 1e-12


def test_defect_is_continuous_in_time():
    dim, rank = 10, 3
    h = block_dominant_hamiltonian(dim, seed=6)
    h_eff = np.zeros((dim, dim), dtype=complex)
    h_eff[:rank, :rank] = h[:rank, :rank]
    w, _ = np.linalg.eigh(h)
    window = (float(w[0]) - 1.0, 0.5 * float(w[rank - 1] + w[rank]))
    p = spectral_projection(h, window)
    inter = nagy_intertwiner(p, Projector.block(dim, rank))
    psi = WavePacket.random(dim, seed=7)
    delta = 1e-4
    times = [0.7, 0.7 + delta, 1.9, 1.9 + delta]
    d = defect_curve(h, h_eff, p, inter, psi, times)
    lipschitz = np.linalg.norm(h, 2) + np.linalg.norm(h_eff, 2)
    assert abs(d[1] - d[0]) <= 1.01 * delta * lipschitz
    assert abs(d[3] - d[2]) <= 1.01 * delta * lipschitz


def test_defect_rejects_orthogonal_start():
    p = Projector.block(4, 2)
    inter = nagy_intertwiner(p, p)
    psi = WavePacket.normalized([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ConfigError):
        defect_curve(np.eye(4), np.eye(4), p, inter, psi, [0.0, 1.0])


def test_fit_slope_through_origin():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    assert abs(fit_slope_through_origin(times, 0.25 * times) - 0.25) < 1e-14
    with pytest.raises(ConfigError):
        fit_slope_through_origin([0.0, 0.0], [0.0, 0.0])


def test_defect_scaling_single_level_basis():
    # with one retained level the lowest cluster is the whole spectrum and the
    # compression is the full operator, so the defect is pure roundoff
    report = defect_scaling(
        [10.0], FourierPotential.cosine_xy(1.0), times=(0.0, 0.5), n_levels=1, n_cells=1
    )
    (row,) = report.rows
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
    assert report.times == (0.0, 0.5, 1.0)
    assert [r.n_flux for r in report.rows] == [51, 102]
    for row, b_req in zip(report.rows, (10.0, 20.0)):
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

    good = DefectScalingReport(
        rows=(row(0.5, True), row(9.0, False), row(0.2, True)), times=(0.0,)
    )
    assert good.monotone
    bad = DefectScalingReport(
        rows=(row(0.2, True), row(0.5, True)), times=(0.0,)
    )
    assert not bad.monotone
