"""Tests for the Landau-level torus representation and its lowest-level compression."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import eval_hermite

from fluxlab import (
    ConfigError,
    FourierPotential,
    RationalFlux,
    continuum_hamiltonian,
    coset_count,
    coset_eigh,
    field_operator,
    hofstadter_family,
    level_form_factor,
    lll_effective,
    next_level_coupling,
    plane_wave_element,
    strong_field_report,
    torus_basis,
    weyl_translation,
)
from fluxlab.cli import decreasing_gate
from oracles import dense_eigh


def standard_basis(n_levels=6, field=10.0, n_cells=4):
    return torus_basis(field, n_levels, n_cells)


def potential_value(v, x, y):
    """V(x, y) summed from the harmonics on the unit cell."""
    return sum(c * np.exp(2j * np.pi * (n * x + m * y)) for n, m, c in v.harmonics).real


def test_potential_reality_and_evaluation():
    v = FourierPotential.cosine_xy(1.5)
    assert abs(potential_value(v, 0.0, 0.0) - 6.0) < 1e-12
    assert abs(potential_value(v, 0.5, 0.0) - 0.0) < 1e-12  # -3 + 3
    with pytest.raises(ValueError):
        FourierPotential([(1, 0, 1.0)])  # missing conjugate partner
    assert FourierPotential.cosine_xy(0.0).harmonics == ()


def test_basis_bookkeeping():
    basis = torus_basis(np.pi, 3, 2)  # side 2, b = 2 pi
    assert basis.n_flux == 4
    assert basis.effective_field == 2.0 * np.pi
    assert basis.dim == 12
    assert np.allclose(basis.level_energies(), 2.0 * np.pi * np.array([1, 3, 5]))
    guiding = RationalFlux(1, basis.n_flux)
    u, v = weyl_translation(guiding, 0, 1), weyl_translation(guiding, -1, 0)
    phase = np.exp(2j * np.pi / 4)
    assert np.allclose(u @ v, phase * (v @ u), atol=1e-12)


def test_quantization_failure_reports_nearest_field():
    with pytest.raises(ConfigError):
        torus_basis(-1.0, 2, 2)
    with pytest.raises(ConfigError):
        torus_basis(10.0, 2, 0)


def test_feasible_field_roundtrip():
    basis = torus_basis(10.0, 2, 4)
    assert basis.n_flux == 51
    assert abs(basis.field - np.pi * 51 / 16.0) < 1e-12
    assert basis.n_cells == 4
    with pytest.raises(ConfigError):
        torus_basis(0.0, 2, 4)


def test_flat_potential_gives_landau_levels():
    basis = standard_basis()
    ham = continuum_hamiltonian(basis, FourierPotential.cosine_xy(0.0))
    w = np.linalg.eigvalsh(ham.matrix)
    expect = np.repeat(basis.level_energies(), basis.n_flux)
    assert np.max(np.abs(w - expect) / np.abs(expect)) < 1e-10


def test_constant_potential_shifts_levels():
    basis = standard_basis(n_levels=3)
    ham = continuum_hamiltonian(basis, FourierPotential([(0, 0, 0.7)]))
    w = np.linalg.eigvalsh(ham.matrix)
    expect = np.repeat(basis.level_energies(), basis.n_flux) + 0.7
    assert np.max(np.abs(w - expect)) < 1e-10


def oscillator_element(m, n, lam, nodes, weights, hm, hn):
    """<m| e^{i lam x} |n> for unit oscillator eigenstates, by quadrature."""
    norm = math.exp(
        -0.5 * (m + n) * math.log(2.0)
        - 0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1))
        - 0.5 * math.log(math.pi)
    )
    return norm * np.sum(weights * hm * hn * np.exp(1j * lam * nodes))


def test_form_factor_matches_oscillator_quadrature():
    # the inter-level factor at K = (K, 0) has the magnitudes of the 1D
    # oscillator matrix elements <m| e^{i K l x} |n>, computed here from
    # Hermite functions and Gauss-Hermite quadrature
    b = 7.0
    ell = 1.0 / math.sqrt(b)
    nodes, weights = hermgauss(160)
    for k in (0.6, 2.3, 5.1):
        g = level_form_factor(k, 0.0, b, 5)
        lam = k * ell
        for m in range(5):
            hm = eval_hermite(m, nodes)
            for n in range(5):
                hn = eval_hermite(n, nodes)
                ref = oscillator_element(m, n, lam, nodes, weights, hm, hn)
                assert abs(abs(g[m, n]) - abs(ref)) < 1e-10


def test_form_factor_point_values_and_adjoint():
    b = 3.0
    assert np.allclose(level_form_factor(0.0, 0.0, b, 4), np.eye(4), atol=1e-14)
    # diagonal at |K|^2 = 2 b: e^{-1/2} L_n(1); for n = 0 that is e^{-1/2}
    k = math.sqrt(2.0 * b)
    g = level_form_factor(k, 0.0, b, 3)
    assert abs(g[0, 0] - math.exp(-0.5)) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(6):
        kx, ky = rng.uniform(-4, 4, size=2)
        a = level_form_factor(kx, ky, b, 6)
        c = level_form_factor(-kx, -ky, b, 6)
        assert np.max(np.abs(a.conj().T - c)) < 1e-12


def tau(j1, j2, n_flux):
    """Torus translation tau(j1, j2) on the guiding space, as the continuum
    module builds it."""
    return weyl_translation(RationalFlux(1, n_flux), -j1, j2)


def test_guiding_translation_algebra():
    for n_flux in (5, 8, 51):
        t10 = tau(1, 0, n_flux)
        t01 = tau(0, 1, n_flux)
        # adjoint law
        assert np.max(np.abs(t10.conj().T - tau(-1, 0, n_flux))) < 1e-12
        # projective composition
        comp = np.exp(-1j * np.pi / n_flux) * tau(1, 1, n_flux)
        assert np.max(np.abs(t10 @ t01 - comp)) < 1e-12
        # commutation phase
        swap = np.exp(-2j * np.pi / n_flux) * (t01 @ t10)
        assert np.max(np.abs(t10 @ t01 - swap)) < 1e-12


def test_plane_wave_identity_and_adjoint():
    basis = standard_basis(n_levels=4)
    assert np.allclose(
        plane_wave_element(basis, (0, 0)), np.eye(basis.dim), atol=1e-14
    )
    e_plus = plane_wave_element(basis, (1, 0))
    e_minus = plane_wave_element(basis, (-1, 0))
    assert np.max(np.abs(e_plus.conj().T - e_minus)) < 1e-12


def test_plane_wave_composition_on_converged_block():
    # plane waves are multiplication operators, so E(K1) E(K2) = E(K1+K2) and
    # E(K1) E(K2) = E(K2) E(K1); hard level truncation breaks this near the
    # top of the retained ladder, so the identities are checked on the low
    # block of a tall (20-level) basis where the truncation has converged.
    basis = standard_basis(n_levels=20)
    r = 3 * basis.n_flux
    e10 = plane_wave_element(basis, (1, 0))
    e01 = plane_wave_element(basis, (0, 1))
    e11 = plane_wave_element(basis, (1, 1))
    comp = (e10 @ e01 - e11)[:r, :r]
    assert np.max(np.abs(comp)) < 1e-12
    swap = (e10 @ e01 - e01 @ e10)[:r, :r]
    assert np.max(np.abs(swap)) < 1e-12
    unit = ((e10.conj().T @ e10) - np.eye(basis.dim))[:r, :r]
    assert np.max(np.abs(unit)) < 1e-12


def test_flat_hamiltonian_commutes_with_torus_translations():
    basis = standard_basis(n_levels=4)
    h0 = continuum_hamiltonian(basis, FourierPotential.cosine_xy(0.0)).matrix
    for j in ((1, 0), (0, 1), (2, 3)):
        t = np.kron(np.eye(basis.n_levels), tau(*j, basis.n_flux))
        assert np.linalg.norm(h0 @ t - t @ h0, 2) < 1e-10


def test_lll_effective_is_lowest_block():
    basis = standard_basis(n_levels=5)
    v = FourierPotential.cosine_xy(1.0)
    full = continuum_hamiltonian(basis, v).matrix
    kinetic = np.kron(
        np.diag(basis.level_energies().astype(complex)), np.eye(basis.n_flux)
    )
    block = (full - kinetic)[: basis.n_flux, : basis.n_flux]
    assert np.max(np.abs(lll_effective(basis, v) - block)) < 1e-12


def test_lll_spectrum_energy_reflection():
    # the reflection E -> -E is implemented by a clock/shift parity unitary,
    # which exists when the flux count is divisible by twice the cell count;
    # at 48 quanta on 4 cells the eigenvalue multiset is exactly symmetric
    basis = torus_basis(3.0 * np.pi, 1, 4)
    w = np.linalg.eigvalsh(lll_effective(basis, FourierPotential.cosine_xy(1.0)))
    assert np.max(np.abs(w + w[::-1])) < 1e-10


def test_lll_spectrum_dual_to_lattice_model():
    # cell count 4, 51 flux quanta: the rescaled lowest-level operator has the
    # eigenvalues of the discrete magnetic fiber at flux 16/51 (= 4^2 mod 51 over 51)
    basis = torus_basis(np.pi * 51 / 16.0, 1, 4)
    v = FourierPotential.cosine_xy(1.0)
    w = np.linalg.eigvalsh(lll_effective(basis, v))
    b = basis.effective_field
    rescaled = np.exp(np.pi ** 2 / b) * w
    ref = np.linalg.eigvalsh(hofstadter_family(RationalFlux(16, 51)).matrix(0.0, 0.0))
    assert np.max(np.abs(rescaled - ref)) < 1e-10


def test_incompatible_harmonic_rejected():
    basis = standard_basis(n_levels=2)
    with pytest.raises(ConfigError):
        plane_wave_element(basis, (0.3, 0.0))
    # fractional harmonics that do land on the torus grid are fine
    frac = plane_wave_element(basis, (0.25, 0.0))
    assert frac.shape == (basis.dim, basis.dim)


def test_next_level_coupling_matches_form_factor():
    # the proxy is the largest potential matrix element from the top retained
    # level into the first dropped one; for the cosine potential that is the
    # (6, 5) form factor entry at |K| = 2 pi. It is not monotone in the field
    # (the Laguerre factor oscillates through zero), only positive and finite.
    v = FourierPotential.cosine_xy(1.0)
    for field in (10.0, 20.0, 40.0):
        basis = torus_basis(field, 6, 4)
        c = next_level_coupling(basis, v)
        g = level_form_factor(2.0 * np.pi, 0.0, basis.effective_field, 7)
        assert 0.0 < c < 10.0
        assert abs(c - abs(g[6, 5])) < 1e-12


def test_strong_field_report_flat_potential():
    rows = strong_field_report([10.0, 20.0], FourierPotential.cosine_xy(0.0),
                               n_levels=3, n_cells=2)
    assert len(rows) == 2
    for r in rows:
        assert r.separated
        assert r.distance == 0.0
        assert abs(r.cluster_gap - 4.0 * r.field) < 1e-8


def test_lowest_cluster_structure():
    basis = standard_basis()
    ham = continuum_hamiltonian(basis, FourierPotential.cosine_xy(1.0))
    w = np.linalg.eigvalsh(ham.matrix)
    n_flux = basis.n_flux
    b = basis.field
    assert np.max(np.abs(w[:n_flux] - 2.0 * b)) < 2.5  # lowest cluster near 2B
    gap = w[n_flux] - w[n_flux - 1]
    assert 3.0 * b < gap + 2.5 and gap < 5.0 * b
    report = strong_field_report([10.0], FourierPotential.cosine_xy(1.0))
    assert report[0].separated and report[0].n_flux == n_flux


def test_distances_decreasing_helper():
    rows = strong_field_report([10.0, 20.0], FourierPotential.cosine_xy(0.0),
                               n_levels=2, n_cells=2)
    # 0.0 is not strictly below 0.0
    assert not decreasing_gate(rows, "distance").passed


@pytest.mark.parametrize(("field", "cosets"), [(10.0, 1), (20.0, 2), (40.0, 4)])
def test_coset_split_matches_the_unsplit_solve(field, cosets):
    # n_flux 51, 102, 204 on 4 cells: g = gcd(n_flux, 4)
    potential = FourierPotential.cosine_xy(1.0)
    ham = field_operator(field, potential, 2, 4)
    assert coset_count(ham.basis, potential) == cosets
    w = coset_eigh(ham.matrix, ham.basis, potential)
    assert np.max(np.abs(w - dense_eigh(ham.matrix))) < 1e-12
    r = ham.basis.n_flux
    w_r, frame = coset_eigh(ham.matrix, ham.basis, potential, rank=r)
    assert np.max(np.abs(w_r - w)) < 1e-12
    assert frame.shape == (ham.basis.dim, r)
    residual = ham.matrix @ frame - frame * w[:r]
    assert np.max(np.abs(residual)) < 1e-10
    assert np.max(np.abs(frame.conj().T @ frame - np.eye(r))) < 1e-12


def test_fractional_harmonic_gives_one_coset():
    # n = 1/4 on 4 cells shifts the guiding index by 1, so nothing splits
    # at a field where the integer harmonics give g = 4
    basis = torus_basis(40.0, 2, 4)
    assert coset_count(basis, FourierPotential.cosine_xy(1.0)) == 4
    quarter = FourierPotential([(0.25, 0, 0.5), (-0.25, 0, 0.5), (0, 1, 1.0),
                                (0, -1, 1.0)])
    assert coset_count(basis, quarter) == 1
    h = continuum_hamiltonian(basis, quarter).matrix
    assert np.array_equal(coset_eigh(h, basis, quarter), dense_eigh(h))
    # no harmonics: every guiding index is its own coset
    assert coset_count(basis, FourierPotential.cosine_xy(0.0)) == basis.n_flux

