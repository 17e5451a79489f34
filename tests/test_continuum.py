"""Tests for the Landau-level torus representation and its lowest-level compression."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import eval_hermite

from fluxlab import (
    ConfigError,
    FourierPotential,
    NumericalCheckError,
    RationalFlux,
    check_hermitian,
    coset_count,
    coset_eigh,
    guiding_bands,
    hofstadter_family,
    level_form_factor,
    inversion_even,
    next_level_coupling,
    orbit_rows,
    sector_blocks,
    sector_plan,
    strong_field_report,
    torus_basis,
)
from fluxlab import continuum
from fluxlab.cli import decreasing_gate, main
from oracles import (
    c2_deviation,
    coset_blocks,
    dense_eigh,
    dense_hamiltonian,
    dense_weyl,
    inversion_matrix,
    plane_wave_element,
    scattered_frame,
    scipy_level_form_factor,
    shift_deviation,
)


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
    u, v = dense_weyl(guiding, 0, 1), dense_weyl(guiding, -1, 0)
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
    w = coset_eigh(basis, FourierPotential.cosine_xy(0.0))
    expect = np.repeat(basis.level_energies(), basis.n_flux)
    assert np.max(np.abs(w - expect) / np.abs(expect)) < 1e-10


def test_constant_potential_shifts_levels():
    basis = standard_basis(n_levels=3)
    w = coset_eigh(basis, FourierPotential([(0, 0, 0.7)]))
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


def test_form_factor_on_401_levels_is_bounded_and_keeps_axis_zeros():
    # B = 0.2 on 4 cells: |kappa| ~ 7.1, so the closed form's kappa^d
    # overflows past d ~ 362, while the recurrence carries only entries of
    # a unitary's block
    b = torus_basis(0.2, 401, 4).effective_field
    g = level_form_factor(2.0 * np.pi, 0.0, b, 401)
    assert np.all(np.isfinite(g)) and np.max(np.abs(g)) <= 1.0
    # the low levels keep all their weight inside the 401 retained ones
    assert np.max(np.abs((g @ g.conj().T)[:50, :50] - np.eye(50))) < 1e-12
    # each row n runs over n alone, so more levels only append
    assert np.array_equal(g[:400, :400], level_form_factor(2.0 * np.pi, 0.0, b, 400))
    # a K on an axis: the same exact zeros as the closed form where its
    # complex powers are repeated products (d < 100), and on all 401 levels
    # an entry of phase (+-1)^d or (+-i)^d has one part exactly zero
    d = np.subtract.outer(np.arange(401), np.arange(401))
    for k in ((2.0 * np.pi, 0.0), (-2.0 * np.pi, 0.0), (0.0, 2.0 * np.pi),
              (0.0, -2.0 * np.pi)):
        g = level_form_factor(*k, b, 401)
        want = scipy_level_form_factor(*k, b, 100)
        assert np.array_equal(g.real[:100, :100] == 0, want.real == 0)
        assert np.array_equal(g.imag[:100, :100] == 0, want.imag == 0)
        if k[1] == 0.0:
            assert not np.any(g.imag)
        else:
            assert not np.any(g.real[d % 2 == 1]) and not np.any(g.imag[d % 2 == 0])


def tau(j1, j2, n_flux):
    """Torus translation tau(j1, j2) on the guiding space, as the continuum
    module builds it, written out as a matrix."""
    return dense_weyl(RationalFlux(1, n_flux), -j1, j2)


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
    h0 = dense_hamiltonian(basis, FourierPotential.cosine_xy(0.0))
    for j in ((1, 0), (0, 1), (2, 3)):
        t = np.kron(np.eye(basis.n_levels), tau(*j, basis.n_flux))
        assert np.linalg.norm(h0 @ t - t @ h0, 2) < 1e-10


def test_lll_spectrum_energy_reflection():
    # the reflection E -> -E is implemented by a clock/shift parity unitary,
    # which exists when the flux count is divisible by twice the cell count;
    # at 48 quanta on 4 cells the eigenvalue multiset is exactly symmetric
    basis = torus_basis(3.0 * np.pi, 1, 4)
    w = coset_eigh(basis, FourierPotential.cosine_xy(1.0)) - 2.0 * basis.field
    assert np.max(np.abs(w + w[::-1])) < 1e-10


def test_lll_spectrum_dual_to_lattice_model():
    # cell count 4, 51 flux quanta: the rescaled lowest-level operator has the
    # eigenvalues of the discrete magnetic fiber at flux 16/51 (= 4^2 mod 51 over 51)
    basis = torus_basis(np.pi * 51 / 16.0, 1, 4)
    v = FourierPotential.cosine_xy(1.0)
    w = coset_eigh(basis, v) - 2.0 * basis.field
    b = basis.effective_field
    rescaled = np.exp(np.pi ** 2 / b) * w
    ref = np.linalg.eigvalsh(hofstadter_family(RationalFlux(16, 51)).batch(0.0, 0.0))
    assert np.max(np.abs(rescaled - ref)) < 1e-10


def test_incompatible_harmonic_rejected():
    basis = standard_basis(n_levels=2)
    off_grid = FourierPotential([(0.3, 0.0, 1.0), (-0.3, 0.0, 1.0)])
    for build in (coset_count, guiding_bands):
        with pytest.raises(ConfigError):
            build(basis, off_grid)
    # fractional harmonics that do land on the torus grid are fine
    frac = coset_blocks(basis, FourierPotential([(0.25, 0.0, 1.0), (-0.25, 0.0, 1.0)]))
    assert frac.shape == (1, basis.dim, basis.dim)


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
    w = coset_eigh(basis, FourierPotential.cosine_xy(1.0))
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
    basis = torus_basis(field, 2, 4)
    h = dense_hamiltonian(basis, potential)
    assert coset_count(basis, potential) == cosets
    w = coset_eigh(basis, potential)
    assert np.max(np.abs(w - dense_eigh(h))) < 1e-12
    r = basis.n_flux
    w_r, frame = scattered_frame(basis, potential, r)
    assert np.max(np.abs(w_r - w)) < 1e-12
    assert frame.shape == (basis.dim, r)
    residual = h @ frame - frame * w[:r]
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
    # the one coset is the whole operator; the potential is even, so the
    # inversion still halves it
    halves = [(s.coset, s.parity) for s in sector_plan(basis, quarter)]
    assert halves == [(0, 1), (0, -1)]
    h = dense_hamiltonian(basis, quarter)
    assert np.max(np.abs(coset_eigh(basis, quarter) - dense_eigh(h))) < 1e-12
    # no harmonics: every guiding index is its own coset
    assert coset_count(basis, FourierPotential.cosine_xy(0.0)) == basis.n_flux


def test_flat_operator_is_one_batched_solve(monkeypatch, tmp_path):
    # no harmonics: B = 80 on 4 cells has n_flux = 407 cosets of 6 levels
    # each, and the guiding shift by 1 maps each onto the next, so all of
    # them form one orbit and coset 0 stands for the rest. The inversion
    # maps coset 0 to itself and splits it into its even and odd levels
    # (rank 1 and 0): one eigvalsh per block size and rank
    shapes = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    argv = ["continuum-spectrum", "--B", "80", "--amplitude", "0"]
    assert main(argv + ["--out", str(tmp_path / "flat.csv")]) == 0
    assert shapes == [(1, 3, 3), (1, 3, 3)]


def test_inversion_evenness_is_read_from_the_harmonics():
    assert inversion_even(FourierPotential.cosine_xy(1.0))
    assert inversion_even(FourierPotential.cosine_xy(0.0))
    # cos(2 pi (x + y)) is even; -2 sin(2 pi (x + y)) and sin(2 pi x) are odd
    assert inversion_even(FourierPotential([(1, 1, 0.5), (-1, -1, 0.5)]))
    assert not inversion_even(FourierPotential([(1, 1, 1j), (-1, -1, -1j)]))
    assert not inversion_even(FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j)]))
    # bit for bit: a partner one ulp off breaks the symmetry
    c = 0.3
    assert not inversion_even(
        FourierPotential([(1, 0, c), (-1, 0, math.nextafter(c, 1.0))]))
    # repeated harmonics are summed before the comparison
    assert inversion_even(
        FourierPotential([(1, 0, 0.25), (1, 0, 0.25), (-1, 0, 0.5)]))


@pytest.mark.parametrize(("field", "n_levels", "n_cells"),
                         [(10.0, 3, 2), (5.0, 4, 2), (20.0, 5, 4), (7.0, 2, 3)])
def test_sector_bases_are_the_inversion_eigenvectors(field, n_levels, n_cells):
    # folding the identity gives each half's basis U in its coset's
    # coordinates: orthonormal, S U = parity U, the first rank columns on the
    # lowest level and the rest above it, and the halves of a coset together
    # span it
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(field, n_levels, n_cells)
    g = coset_count(basis, potential)
    per_level = basis.n_flux // g
    rows = np.arange(basis.dim)
    coset = rows % basis.n_flux % g
    s = inversion_matrix(basis)
    for c in range(g):
        halves = [sec for sec in sector_plan(basis, potential) if sec.coset == c]
        mine = np.flatnonzero(coset == c)
        if (2 * c) % g:
            assert [sec.parity for sec in halves] == [0]
            continue
        assert [sec.parity for sec in halves] == [1, -1]
        s_c = s[np.ix_(mine, mine)]
        spans = []
        for sec in halves:
            u = sec.fold(np.eye(len(mine)), 0).T
            assert u.shape == (len(mine), sec.dim)
            assert np.max(np.abs(u.T @ u - np.eye(sec.dim))) < 1e-15
            assert np.array_equal(s_c @ u, sec.parity * u)
            assert not np.any(u[per_level:, : sec.rank])
            assert not np.any(u[:per_level, sec.rank:])
            spans.append(u)
        both = np.hstack(spans)
        assert np.max(np.abs(both.T @ both - np.eye(len(mine)))) < 1e-15


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_cells", [1, 2, 3, 4])
def test_sector_spectrum_matches_the_unsplit_solve(n_levels, n_cells):
    # every sector size the inversion makes, odd level counts giving halves
    # of unequal size: the spectrum, the one-level spectrum from the sector
    # corners of the orbit representatives, each repeated once per orbit
    # member, and the C2 deviation against the dense operator
    potential = FourierPotential.cosine_xy(1.0)
    for n_flux in (7, 8, 12, 13):
        basis = torus_basis(math.pi * n_flux / n_cells**2, n_levels, n_cells)
        h = dense_hamiltonian(basis, potential)
        want = dense_eigh(h)
        got = coset_eigh(basis, potential)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
        stacks, _, deviation, shift = sector_blocks(basis, potential)
        sectors = [sec for group, *_ in stacks for sec in group]
        copies = stacks[0][2]
        assert {n for *_, n in stacks} == {copies}
        assert copies * sum(sec.dim for sec in sectors) == basis.dim
        assert copies * sum(sec.rank for sec in sectors) == n_flux
        one_level = np.sort(np.concatenate([
            np.tile(np.linalg.eigvalsh(blocks[:, :r, :r]).ravel(), n)
            for group, blocks, n in stacks for r in [group[0].rank] if r]))
        want_one = dense_eigh(h[:n_flux, :n_flux])
        assert np.all(np.abs(one_level - want_one) <= 1e-12 * (1 + np.abs(want_one)))
        s = inversion_matrix(basis)
        g = coset_count(basis, potential)
        if g <= 2:  # every coset is split; the representatives' rows count
            rep = np.arange(basis.dim) % n_flux % g < g // copies
            assert deviation == np.max(np.abs(s @ h @ s.T - h)[rep])
        bound = continuum.C2_DEVIATION_ULPS * np.finfo(float).eps * np.max(np.abs(h))
        assert deviation <= bound
        assert shift <= bound


@pytest.mark.parametrize(("field", "cosets"), [(10.0, 1), (20.0, 2), (40.0, 4)])
def test_sector_deviation_is_the_dense_one(field, cosets, monkeypatch):
    # h = 1 orbit, so coset 0 is the one representative whose C2 deviation
    # sector_blocks reads from the bands. It is the dense max |S H S^T - H|
    # of the same coset block (c2_deviation) bit for bit, also after one
    # entry moves in the bands and the block, each with its Hermitian
    # mirror: entry (r, image[r]) by an imaginary delta (S maps it onto its
    # mirror, which moves by the conjugate, so a real delta would not show),
    # and entry (fixed, r) of a fixed row. Each delta is below the check's
    # bound, so the check passes and reports it
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(field, 2, 4)
    assert coset_count(basis, potential) == len(orbit_rows(basis, potential)) == cosets
    split = [sec for sec in sector_plan(basis, potential) if sec.parity]
    assert sorted({sec.coset for sec in split}) == [
        c for c in range(cosets) if 2 * c % cosets == 0]
    sec, per_level = split[0], basis.n_flux // cosets
    r = per_level - 1  # the last lowest-level row
    fixed = np.flatnonzero(sec.image == np.arange(sec.image.size))[0]
    assert sec.coset == 0 and sec.image[r] < r
    real = continuum.guiding_bands
    for entry, delta in (((r, r), 0.0), ((r, sec.image[r]), 1e-12j), ((fixed, r), 1e-12)):
        block = coset_blocks(basis, potential)[0].astype(complex)
        bands = real(basis, potential)
        for (i, k), d in ((entry, delta), (entry[::-1], np.conj(delta))):
            block[i, k] += d
            (a, t), (b, u) = divmod(i, per_level), divmod(k, per_level)
            o = cosets * (u - t) % basis.n_flux  # guiding rows cosets * t, cosets * u
            bands.setdefault(o, np.zeros_like(bands[0]))[a, b, cosets * t] += d
        monkeypatch.setattr(continuum, "guiding_bands", lambda *_: bands)
        _, _, deviation, _ = sector_blocks(basis, potential)
        assert bits(deviation) == bits(c2_deviation(sec, block))
        assert deviation >= abs(delta) / 2


def test_a_failing_check_builds_nothing_dense(monkeypatch, traced_peak):
    # B = 30 on 4 cells with 6 levels: n_flux 153 in g = 1 coset, one real
    # 918 x 918 block of 6.74 MB. A 1e-9 C2 break in the bands, with its
    # Hermitian mirror, fails the C2 check, which reads the bands before any
    # block is built: the call holds less than one block. Entry (0, 4) of
    # level 0 is in band 4 at guiding row 0, its mirror in band -4 at row 4
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(30.0, 6, 4)
    bands = guiding_bands(basis, potential)
    bands[4][0, 0, 0] += 1e-9
    bands[-4 % 153][0, 0, 4] += 1e-9
    monkeypatch.setattr(continuum, "guiding_bands", lambda *_: bands)
    block = 8 * 918 ** 2

    def failing():
        with pytest.raises(NumericalCheckError, match="C2 deviation"):
            sector_blocks(basis, potential)

    peak = traced_peak(failing)
    assert basis.n_flux == 153 and coset_count(basis, potential) == 1
    assert peak < block, f"peak {peak / block:.2f} blocks"


def test_fold_stage_holds_less_than_a_block_and_a_half(monkeypatch, traced_peak):
    # B = 30 on 4 cells with 6 levels: n_flux 153 in g = 1 coset, one real
    # 918 x 918 block of 6.74 MB, scattered from prebuilt bands, so that only
    # that block, the deviation scan, the folds and the stacks are traced. A
    # gather of the whole block for the deviation or a fold stage that holds
    # the stacks, a whole-width fold and its temporary at once would each
    # take the stage above the bound on top of the block
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(30.0, 6, 4)
    bands = guiding_bands(basis, potential)
    blocks = coset_blocks(basis, potential)
    assert blocks.shape == (1, 918, 918) and blocks.dtype == np.float64
    monkeypatch.setattr(continuum, "guiding_bands", lambda *_: bands)
    stage = traced_peak(lambda: sector_blocks(basis, potential)) - blocks.nbytes
    assert stage <= 1.4 * blocks.nbytes, f"stage {stage / blocks.nbytes:.2f} blocks"


@pytest.mark.parametrize(
    "potential",
    [FourierPotential.cosine_xy(1.0), FourierPotential([(0.25, 0, -0.5j), (-0.25, 0, 0.5j)])],
    ids=["cosine", "sine"],
)
def test_coset_build_holds_no_dense_translation(potential, traced_peak):
    # B = 80 on 4 cells with 1 level: n_flux 407 in g = 1 coset, one
    # 407 x 407 block. The build holds the bands (n_flux entries each), the
    # block scattered from them, real for the cosine, and the checks' and
    # folds' temporaries; a dense n_flux x n_flux translation is one more
    # complex block each, and two alive at once reach the bound
    basis = torus_basis(80.0, 1, 4)
    complex_bytes = 16 * basis.dim ** 2
    peak = traced_peak(lambda: sector_blocks(basis, potential))
    assert peak <= 2.0 * complex_bytes, f"peak {peak / complex_bytes:.2f} blocks"


def test_potentials_that_are_not_even_keep_whole_cosets(solve_dtypes):
    # sin(2 pi x) is odd: the same code runs with one sector per coset, and
    # the blocks stay complex
    sine = FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j)])
    basis = torus_basis(20.0, 3, 4)
    sectors = sector_plan(basis, sine)
    assert [(sec.coset, sec.parity) for sec in sectors] == [(0, 0), (1, 0)]
    stacks, _, deviation, _ = sector_blocks(basis, sine)
    assert deviation == 0.0 and len(stacks) == 1
    w = coset_eigh(basis, sine)
    assert solve_dtypes == [np.dtype(np.complex128)]
    want = dense_eigh(dense_hamiltonian(basis, sine))
    assert np.max(np.abs(w - want)) < 1e-12


def test_free_operator_splits_every_self_paired_coset():
    # no harmonics: g = n_flux cosets of one guiding row each. Cosets 0 and
    # n_flux/2 are their own images; their halves hold the even and the odd
    # levels, and the odd half has no lowest-level row
    basis = torus_basis(math.pi * 12 / 4, 3, 2)
    free = FourierPotential.cosine_xy(0.0)
    halves = [sec for sec in sector_plan(basis, free) if sec.parity]
    assert [(sec.coset, sec.parity, sec.dim, sec.rank) for sec in halves] == [
        (0, 1, 2, 1), (0, -1, 1, 0), (6, 1, 2, 1), (6, -1, 1, 0)]
    w = coset_eigh(basis, free)
    assert np.array_equal(w, np.repeat(basis.level_energies(), 12))


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
@pytest.mark.parametrize("mutation", ["unsigned levels", "one entry", "nan"])
def test_broken_inversion_symmetry_exits_3(command, mutation, monkeypatch, capsys):
    # dropping the (-1)^n of the fold, moving one entry of a coset block
    # (and its mirror, so the block stays Hermitian) by 1e-9, or a NaN level
    # sign, each fails the C2 deviation check before any solve (a NaN entry
    # fails the Hermiticity check on the bands first). B = 5 on 2 cells:
    # entry (0, 1) of coset 0 joins its fixed row 0 to row 1, whose image
    # under the inversion is row 2; they are guiding rows 0 and 2 of level 0,
    # in bands 2 and -2 mod 6
    if mutation == "unsigned levels":
        monkeypatch.setattr(continuum, "_level_parity", lambda n: np.ones(n))
    elif mutation == "nan":
        monkeypatch.setattr(continuum, "_level_parity", lambda n: np.full(n, np.nan))
    else:
        real = continuum.guiding_bands

        def perturbed(basis, potential):
            bands = real(basis, potential)
            bands[2][0, 0, 0] += 1e-9
            bands[4][0, 0, 2] += 1e-9
            return bands

        monkeypatch.setattr(continuum, "guiding_bands", perturbed)
    solves = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: solves.append(a))
    argv = [command, "--B", "5", "--ncells", "2", "--nlevels", "3"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "C2 deviation" in err and "Traceback" not in err
    assert solves == []


# sin(2 pi x) + 2 cos(2 pi y): complex blocks; and cos(2 pi x) + cos(pi y),
# whose half harmonic has j2 = n_cells / 2, so the guiding shift by
# n_flux / g leaves it only where g divides n_cells / 2
ORBIT_POTENTIALS = {
    "cosine": FourierPotential.cosine_xy(1.0),
    "odd": FourierPotential([(1, 0, -0.5j), (-1, 0, 0.5j), (0, 1, 1.0), (0, -1, 1.0)]),
    "half": FourierPotential([(1, 0, 0.5), (-1, 0, 0.5), (0, 0.5, 0.5), (0, -0.5, 0.5)]),
    "strong": FourierPotential.cosine_xy(300.0),
}


@pytest.mark.parametrize("name", sorted(ORBIT_POTENTIALS))
@pytest.mark.parametrize("n_cells", [2, 4, 6, 8])
def test_orbit_spectrum_matches_every_coset_solved(name, n_cells):
    # each representative's eigenvalues, repeated once per orbit member, are
    # the eigenvalues of all g coset blocks solved one by one; the orbit
    # count h and the shift deviation are the dense permutation oracle's,
    # the deviation bit for bit
    potential = ORBIT_POTENTIALS[name]
    for n_flux in (6, 8, 12, 16, 18, 24, 32):
        basis = torus_basis(math.pi * n_flux / n_cells**2, 3, n_cells)
        want = np.sort(np.linalg.eigvalsh(coset_blocks(basis, potential)), axis=None)
        got = coset_eigh(basis, potential)
        assert np.max(np.abs(got - want)) <= 1e-10, n_flux
        h, deviation = shift_deviation(basis, potential)
        g = coset_count(basis, potential)
        assert g // len(orbit_rows(basis, potential)) == h
        *_, shift = sector_blocks(basis, potential)
        assert shift == deviation, n_flux
        bound = continuum.C2_DEVIATION_ULPS * np.finfo(float).eps
        assert shift <= bound * np.max(np.abs(coset_blocks(basis, potential)))


@pytest.mark.parametrize(("n_flux", "n_cells", "cosets", "orbits"),
                         [(8, 4, 4, 2), (18, 6, 6, 3), (16, 4, 4, 4), (10, 2, 2, 1)])
def test_orbit_counts(n_flux, n_cells, cosets, orbits):
    # cosine: the shift by n_flux/g gives h = gcd(n_flux/g, g) orbits, the
    # cosets c mod h. Cosets of one orbit share a spectrum, and the first two
    # representatives do not (the inversion pairs coset c with -c, so 1 and 3
    # agree at n_flux 16 on 4 cells, across orbits)
    basis = torus_basis(math.pi * n_flux / n_cells**2, 2, n_cells)
    potential = FourierPotential.cosine_xy(1.0)
    rows = orbit_rows(basis, potential)
    assert coset_count(basis, potential) == cosets
    assert rows.shape == (cosets // orbits, basis.dim // cosets)
    assert np.array_equal(rows[0], np.arange(basis.dim // cosets))
    values = np.linalg.eigvalsh(coset_blocks(basis, potential))
    for c in range(cosets):
        assert np.max(np.abs(values[c] - values[c % orbits])) < 1e-10
    if orbits > 1:
        assert np.max(np.abs(values[0] - values[1])) > 1e-3


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
@pytest.mark.parametrize("delta", [1e-9, float("nan")])
@pytest.mark.parametrize("entry", [(0, 1), (8, 7)], ids=["level 0", "level 2"])
def test_broken_shift_symmetry_exits_3(command, delta, entry, monkeypatch, capsys):
    # B = 5 on 2 cells with 3 levels: n_flux 6 in g = 2 cosets of one orbit,
    # so coset 1 is solved as coset 0 only if the shift deviation check
    # passes. Moving one entry of coset 1 (and its mirror) by 1e-9 in the
    # first or the last level fails that check before any solve; a NaN there
    # fails the Hermiticity check on the bands, which comes first. Block
    # entry (0, 1) joins guiding rows 1 and 3 of level 0, in bands 2 and -2
    # mod 6, and (8, 7) rows 5 and 3 of level 2, in bands -2 and 2
    real = continuum.guiding_bands
    level, row, col = {(0, 1): (0, 1, 3), (8, 7): (2, 5, 3)}[entry]

    def perturbed(basis, potential):
        bands = real(basis, potential)
        bands[(col - row) % 6][level, level, row] += delta
        bands[(row - col) % 6][level, level, col] += delta
        return bands

    monkeypatch.setattr(continuum, "guiding_bands", perturbed)
    solves = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: solves.append(a))
    argv = [command, "--B", "5", "--ncells", "2", "--nlevels", "3"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    if delta == delta:
        assert "shift deviation" in err and "in coset 1" in err
    else:
        assert "matrix is not Hermitian" in err
    assert "Traceback" not in err
    assert solves == []


# the band path's oracle sweep: each potential with the cell counts it is
# defined on. The quarter harmonic gives g = 1, and cos(2 pi x) + cos(pi y)
# on 4 cells gives h = g
BAND_POTENTIALS = {
    "cosine": (FourierPotential.cosine_xy(1.0), (1, 2, 3, 4)),
    "strong": (FourierPotential.cosine_xy(300.0), (1, 2, 3, 4)),
    "odd": (ORBIT_POTENTIALS["odd"], (1, 2, 3, 4)),
    "quarter": (FourierPotential([(0.25, 0, 0.5), (-0.25, 0, 0.5), (0, 1, 1.0),
                                  (0, -1, 1.0)]), (4,)),
    "half": (ORBIT_POTENTIALS["half"], (4,)),
}


def bits(x):
    """x as its uint64 words, so that equality is bit for bit."""
    return np.array(x).view(np.uint64)


@pytest.mark.parametrize("n_levels", [1, 3, 6])
@pytest.mark.parametrize("name", sorted(BAND_POTENTIALS))
def test_band_path_is_the_dense_oracle_bit_for_bit(name, n_levels):
    # the representative blocks, solved whole or folded into their sectors,
    # each coset's Hermiticity deviation, and the C2 and shift deviations are
    # those of the dense all-coset scatter. B = 1.6 on 4 cells is n_flux 8,
    # where cos(2 pi x) + cos(pi y) has g = h = 4
    potential, cells = BAND_POTENTIALS[name]
    orbits = set()
    for n_cells in cells:
        for field in (1.0, 1.6, 5.0, 13.0, 40.0, 80.0):
            basis = torus_basis(field, n_levels, n_cells)
            dense = coset_blocks(basis, potential)
            g = len(dense)
            stacks, hermitian, c2, shift = sector_blocks(basis, potential)
            each = continuum._mirror_deviations(  # against conj V_-o[b, a, j + o]
                guiding_bands(basis, potential), g,
                lambda w, o: np.roll(w, -o, 2).transpose(1, 0, 2).conj())
            want = [check_hermitian(block) for block in dense]
            assert np.array_equal(bits(each), bits(want))
            assert bits(hermitian) == bits(max(want))
            h, want_shift = shift_deviation(basis, potential)
            orbits.add((g, h))
            sectors = [s for group, *_ in stacks for s in group]
            for group, blocks, copies in stacks:
                assert copies == g // h
                folded = np.stack([s.fold(s.fold(dense[s.coset], 1), 0) for s in group])
                assert blocks.dtype == dense.dtype
                assert np.array_equal(bits(blocks), bits(folded)), (field, n_cells)
            assert {s.coset for s in sectors} == set(range(h))
            want_c2 = max((c2_deviation(s, dense[s.coset]) for s in sectors if s.parity),
                          default=0.0)
            assert bits(c2) == bits(want_c2) and bits(shift) == bits(want_shift)
    assert name != "half" or (4, 4) in orbits


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
@pytest.mark.parametrize("delta", [1e-9, float("nan")])
def test_cosets_never_built_dense_are_still_checked(command, delta, monkeypatch, capsys):
    # B = 5 on 2 cells with 3 levels: n_flux 6 in g = 2 cosets of one orbit,
    # so coset 1 is never built dense. Moving one entry of its bands by 1e-9
    # without its mirror, or making it NaN, fails the Hermiticity check on
    # the bands before any solve. Band 2 at row (level 0, guiding 3) joins
    # guiding rows 3 and 5 of coset 1, here from level 0 to level 1
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(5.0, 3, 2)
    assert coset_count(basis, potential) == len(orbit_rows(basis, potential)) == 2
    real = continuum.guiding_bands

    def perturbed(basis, potential):
        bands = real(basis, potential)
        bands[2][0, 1, 3] += delta
        return bands

    monkeypatch.setattr(continuum, "guiding_bands", perturbed)
    solves = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: solves.append(a))
    argv = [command, "--B", "5", "--ncells", "2", "--nlevels", "3"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "matrix is not Hermitian" in err and "Traceback" not in err
    assert solves == []


def test_no_all_coset_array_is_held(traced_peak):
    # B = 40 on 4 cells with 6 levels: n_flux 204 in g = 4 cosets of 306 rows
    # and one orbit (h = 1). sector_blocks holds the bands, the one real
    # representative block and the temporaries of its checks and folds, less
    # than the 4 real blocks that one all-coset (g, d/g, d/g) array would take
    potential = FourierPotential.cosine_xy(1.0)
    basis = torus_basis(40.0, 6, 4)
    assert coset_count(basis, potential) == len(orbit_rows(basis, potential)) == 4
    block = 8 * 306 ** 2
    peak = traced_peak(lambda: sector_blocks(basis, potential))
    assert peak < 4 * block, f"peak {peak / block:.2f} blocks"
