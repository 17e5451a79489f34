"""Tests for the magnetic lattice builders."""

import numpy as np
import pytest

from fluxlab import (
    BlochFiberFamily,
    BoxOperator,
    FourierDispersion,
    InfeasibleModelError,
    RationalFlux,
    add_onsite_disorder,
    conjugate_paired,
    hofstadter_family,
    peierls_quantize,
    symmetric_gauge_box,
    weyl_translation,
)
from oracles import harper_fiber, plaquette_flux

HERM_TOL = 1e-12


def hermiticity(m):
    return float(np.max(np.abs(m - m.conj().T)))


def test_rational_flux_validation():
    f = RationalFlux(2, 5)
    assert f.value == 0.4
    with pytest.raises(ValueError):
        RationalFlux(2, 4)  # not reduced
    with pytest.raises(ValueError):
        RationalFlux(1, 0)
    with pytest.raises(ValueError):
        RationalFlux(1, -3)


def test_rational_flux_parsing():
    assert RationalFlux.from_string("2/5") == RationalFlux(2, 5)
    with pytest.raises(ValueError):
        RationalFlux.from_string("0.4")
    with pytest.raises(ValueError):
        RationalFlux.from_string("a/b")
    assert RationalFlux.from_float(0.25, q_max=64) == RationalFlux(1, 4)
    assert RationalFlux.from_float(1.0 / 3.0, q_max=64) == RationalFlux(1, 3)
    with pytest.raises(ValueError):
        RationalFlux.from_float(0.5, q_max=0)


def test_zero_flux_fiber_is_dispersion_value():
    h = hofstadter_family(RationalFlux(0, 1)).matrix(0.0, 0.0)
    assert h.shape == (1, 1)
    assert abs(h[0, 0] - 4.0) < 1e-14
    rng = np.random.default_rng(11)
    for _ in range(20):
        k1, k2 = rng.uniform(-7, 7, size=2)
        h = hofstadter_family(RationalFlux(0, 1)).matrix(k1, k2)
        expect = 2.0 * np.cos(k1) + 2.0 * np.cos(k2)
        assert abs(h[0, 0] - expect) < 1e-12


def test_half_flux_fiber_matrix_and_eigenvalues():
    h = hofstadter_family(RationalFlux(1, 2)).matrix(0.0, 0.0)
    assert np.allclose(h, [[2, 2], [2, -2]], atol=1e-14)
    w = np.linalg.eigvalsh(h)
    target = 2.0 * np.sqrt(2.0)
    assert np.allclose(w, [-target, target], atol=1e-12)


def test_fiber_dimension_equals_denominator():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = hofstadter_family(RationalFlux(1, 3)).matrix(k1, k2)
        assert h.shape == (3, 3)
        assert len(np.linalg.eigvalsh(h)) == 3


def test_builders_hermitian_everywhere():
    rng = np.random.default_rng(23)
    fluxes = [RationalFlux(0, 1), RationalFlux(1, 2), RationalFlux(2, 5),
              RationalFlux(3, 7), RationalFlux(5, 11)]
    for flux in fluxes:
        for _ in range(8):
            k1, k2 = rng.uniform(-10, 10, size=2)
            assert hermiticity(hofstadter_family(flux).matrix(k1, k2)) < HERM_TOL
            assert hermiticity(harper_fiber(flux, k2 / 7.0, k1)) < HERM_TOL
    for _ in range(4):
        b = rng.uniform(0, 1)
        assert hermiticity(symmetric_gauge_box(b, 5, "open").matrix) < HERM_TOL
    assert hermiticity(
        symmetric_gauge_box(1.0 / 8.0, 4, "magnetic-periodic").matrix
    ) < HERM_TOL


def test_fiber_two_pi_periodic():
    fam = hofstadter_family(RationalFlux(2, 5))
    rng = np.random.default_rng(2)
    for _ in range(5):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = fam.matrix(k1, k2)
        assert np.allclose(h, fam.matrix(k1 + 2 * np.pi, k2), atol=1e-12)
        assert np.allclose(h, fam.matrix(k1, k2 - 2 * np.pi), atol=1e-12)


def test_spectrum_invariant_under_k1_subcell_shift():
    # the Bloch phase shift by 2 pi / q is a gauge move: eigenvalues match
    rng = np.random.default_rng(7)
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 8)):
        step = 2.0 * np.pi / flux.q
        for _ in range(6):
            k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
            fam = hofstadter_family(flux)
            w0 = np.linalg.eigvalsh(fam.matrix(k1, k2))
            w1 = np.linalg.eigvalsh(fam.matrix(k1 + step, k2))
            assert np.max(np.abs(w0 - w1)) < 1e-10


def test_flux_shift_by_one_gives_identical_fibers():
    k1, k2 = 0.7, 1.9
    h0 = hofstadter_family(RationalFlux(1, 3)).matrix(k1, k2)
    h1 = hofstadter_family(RationalFlux(4, 3)).matrix(k1, k2)
    assert np.allclose(h0, h1, atol=1e-12)


def test_flux_negation_preserves_spectrum_union():
    ks = 2.0 * np.pi * np.arange(16) / 16
    wp = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(1, 3)).batch(ks, ks)).ravel())
    wm = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(-1, 3)).batch(ks, ks)).ravel())
    assert np.max(np.abs(wp - wm)) < 1e-10


def test_spectrum_union_energy_reflection():
    # bipartite symmetry: the eigenvalue multiset is exactly -itself on even grids
    ks = 2.0 * np.pi * np.arange(32) / 32
    vals = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(2, 5)).batch(ks, ks)).ravel())
    assert np.max(np.abs(vals + vals[::-1])) < 1e-10


def test_zero_field_box_is_grid_adjacency():
    op = symmetric_gauge_box(0.0, 3, "open")
    path = np.zeros((3, 3))
    path[np.arange(2), np.arange(1, 3)] = 1.0
    path = path + path.T
    expect = np.kron(path, np.eye(3)) + np.kron(np.eye(3), path)
    assert np.allclose(op.matrix, expect, atol=1e-14)


def test_plaquette_flux_is_twice_field():
    rng = np.random.default_rng(31)
    for _ in range(10):
        b = rng.uniform(0, 1)
        op = symmetric_gauge_box(b, 4, "open")
        for n in range(3):
            for m in range(3):
                got = plaquette_flux(op, n, m)
                expect = (2.0 * b) % 1.0
                dev = min(abs(got - expect), 1.0 - abs(got - expect))
                assert dev < 1e-12
    assert plaquette_flux(symmetric_gauge_box(0.0, 3, "open")) == 0.0


def test_plaquette_flux_on_single_plaquette_box():
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = rng.uniform(0, 2)
        op = symmetric_gauge_box(b, 2, "open")
        assert op.matrix.shape == (4, 4)
        got = plaquette_flux(op, 0, 0)
        expect = (2.0 * b) % 1.0
        dev = min(abs(got - expect), 1.0 - abs(got - expect))
        assert dev < 1e-12


def test_plaquette_flux_reads_the_matrix_not_the_label():
    # hand-built reference box in the other standard gauge: x hops 1,
    # y hops e^{-i 2 pi alpha n}; its plaquettes must read back alpha
    alpha = 0.3
    L = 4
    h = np.zeros((L * L, L * L), dtype=complex)

    def idx(n, m):
        return n * L + m

    for n in range(L):
        for m in range(L):
            if n + 1 < L:
                h[idx(n, m), idx(n + 1, m)] += 1.0
            if m + 1 < L:
                h[idx(n, m), idx(n, m + 1)] += np.exp(-2j * np.pi * alpha * n)
    h = h + h.conj().T
    op = BoxOperator(side=L, boundary="open", matrix=h)
    for n in range(L - 1):
        for m in range(L - 1):
            assert abs(plaquette_flux(op, n, m) - alpha) < 1e-12


def test_box_flux_quantization():
    op = symmetric_gauge_box(1.0 / 8.0, 4, "magnetic-periodic")  # 2BL^2 = 4
    for n in range(4):
        for m in range(4):
            assert abs(plaquette_flux(op, n, m) - 0.25) < 1e-12
    with pytest.raises(InfeasibleModelError):
        symmetric_gauge_box(0.1, 3, "magnetic-periodic")  # 2BL^2 = 1.8
    with pytest.raises(ValueError):
        plaquette_flux(symmetric_gauge_box(0.0, 3, "open"), 2, 0)  # wraps
    with pytest.raises(ValueError):
        symmetric_gauge_box(0.1, 3, "weird-boundary")


def test_peierls_constant_dispersion():
    disp = FourierDispersion([(0, 0, 2.5)])
    fam = peierls_quantize(disp, RationalFlux(1, 3))
    for k1, k2 in ((0.0, 0.0), (1.0, 2.0), (4.0, 5.0)):
        assert np.allclose(fam.matrix(k1, k2), 2.5 * np.eye(3), atol=1e-12)


def test_peierls_matches_direct_fiber():
    disp = FourierDispersion.nearest_neighbor()
    ks = 2.0 * np.pi * np.arange(8) / 8
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5)):
        fam = peierls_quantize(disp, flux)
        ref = hofstadter_family(flux)
        wq = np.linalg.eigvalsh(fam.batch(ks, ks))
        wr = np.linalg.eigvalsh(ref.batch(ks, ks))
        assert np.max(np.abs(wq - wr)) < 1e-10


def test_peierls_mixed_harmonic_hermitian():
    disp = FourierDispersion(
        [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
         (1, 1, 0.05), (-1, -1, 0.05)]
    )
    assert conjugate_paired(disp.harmonics)
    fam = peierls_quantize(disp, RationalFlux(1, 3))
    rng = np.random.default_rng(17)
    for _ in range(10):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = fam.matrix(k1, k2)
        assert h.shape == (3, 3)
        assert hermiticity(h) < HERM_TOL


def test_batch_is_bit_identical_to_dense_term_sum():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[rng.random((4, 4)) < 0.5] = 0.0
    dense_pair = BlochFiberFamily(
        flux=RationalFlux(1, 4), dim=4, terms=((2, -1, m), (-2, 1, m.conj().T))
    )
    mixed = FourierDispersion(
        [(1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
         (1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j)]
    )
    families = [dense_pair, peierls_quantize(mixed, RationalFlux(2, 5))]
    families += [hofstadter_family(RationalFlux(p, q)) for p, q in ((0, 1), (1, 2), (-3, 7))]
    # the negated grids put -0.0 among the momenta
    g1 = 2.0 * np.pi * np.arange(9) / 9
    g2 = 2.0 * np.pi * np.arange(6) / 6
    k1 = np.concatenate((g1, -g1, rng.uniform(-10, 10, 4)))
    k2 = np.concatenate((g2, -g2, rng.uniform(-10, 10, 3)))
    for fam in families:
        dense = np.zeros((k1.size, k2.size, fam.dim, fam.dim), dtype=complex)
        for n, mm, mat in fam.terms:
            dense += np.exp(1j * (n * k1[:, None] + mm * k2[None, :]))[..., None, None] * mat
        got = np.ascontiguousarray(fam.batch(k1, k2))
        assert got.shape == dense.shape
        assert np.array_equal(got.view(np.uint64), dense.view(np.uint64))


def test_peierls_rejects_non_real_dispersion():
    disp = FourierDispersion([(1, 0, 1.0)])
    assert not conjugate_paired(disp.harmonics)
    with pytest.raises(ValueError):
        peierls_quantize(disp, RationalFlux(1, 3))


def test_magnetic_translations_commutation():
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 7)):
        u, v = weyl_translation(flux, 1, 0), weyl_translation(flux, 0, 1)
        phase = np.exp(2j * np.pi * flux.value)
        assert np.allclose(u @ v, phase * (v @ u), atol=1e-12)
        assert np.allclose(u @ u.conj().T, np.eye(flux.q), atol=1e-12)
        assert np.allclose(v @ v.conj().T, np.eye(flux.q), atol=1e-12)


def reference_weyl(flux, n, m):
    """W(n, m) = e^{-i pi n m p/q} U^n V^m from repeated matrix products of
    the cyclic down-shift U and the clock V: the construction that
    weyl_translation replaces, kept as its oracle."""
    q = flux.q
    up = np.zeros((q, q), dtype=complex)
    up[(np.arange(q) + 1) % q, np.arange(q)] = 1.0
    u = up.conj().T
    v = np.diag(np.exp(1j * 2.0 * np.pi * flux.value * np.arange(q)))
    un = np.linalg.matrix_power(u if n >= 0 else u.conj().T, abs(n))
    vm = np.linalg.matrix_power(v if m >= 0 else v.conj().T, abs(m))
    return np.exp(-1j * np.pi * n * m * flux.value) * (un @ vm)


def test_weyl_translation_matches_matrix_power_oracle():
    fluxes = [RationalFlux(p, q) for q in range(1, 8) for p in range(-q, 2 * q + 1)
              if np.gcd(p, q) == 1]
    fluxes += [RationalFlux(1, n) for n in (13, 51, 102, 204)]
    for flux in fluxes:
        for n in range(-4, 5):
            for m in range(-4, 5):
                w = weyl_translation(flux, n, m)
                assert np.max(np.abs(w - reference_weyl(flux, n, m))) < 1e-12
                assert np.max(np.abs(w.conj().T - weyl_translation(flux, -n, -m))) < 1e-12


def test_harper_fiber_examples():
    h = harper_fiber(RationalFlux(0, 1), 0.0, 0.0)
    assert h.shape == (1, 1)
    assert abs(h[0, 0] - 4.0) < 1e-14

    h = harper_fiber(RationalFlux(1, 2), 0.0, 0.3)
    assert abs(h[0, 0] - 2.0) < 1e-12
    assert abs(h[1, 1] + 2.0) < 1e-12


def test_harper_fiber_matches_lattice_fiber():
    # the 1D quasiperiodic fiber equals the 2D fiber at (k1, k2) = (k, 2 pi theta);
    # both constructions are written out independently
    rng = np.random.default_rng(41)
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5)):
        for _ in range(8):
            theta = rng.uniform(0, 1)
            k = rng.uniform(0, 2 * np.pi)
            a = harper_fiber(flux, theta, k)
            b = hofstadter_family(flux).matrix(k, 2.0 * np.pi * theta)
            assert np.max(np.abs(a - b)) < 1e-12


def test_add_onsite_disorder_shift_and_validation():
    op = symmetric_gauge_box(1.0 / 8.0, 4, "magnetic-periodic")
    same = add_onsite_disorder(op, np.zeros(16))
    assert np.array_equal(same.matrix, op.matrix)

    shifted = add_onsite_disorder(op, np.full(16, 0.7))
    w0 = np.linalg.eigvalsh(op.matrix)
    w1 = np.linalg.eigvalsh(shifted.matrix)
    assert np.max(np.abs(w1 - (w0 + 0.7))) < 1e-10

    with pytest.raises(ValueError):
        add_onsite_disorder(op, np.zeros(15))

    rng = np.random.default_rng(3)
    field = rng.uniform(-1, 1, size=16)
    a = add_onsite_disorder(op, field)
    b = add_onsite_disorder(op, field)
    assert np.array_equal(a.matrix, b.matrix)
    # stacking twice adds the on-site field twice
    c = add_onsite_disorder(a, field)
    assert np.allclose(c.matrix - op.matrix, np.diag(2.0 * field), atol=1e-14)


def test_dispersion_evaluate_and_reality():
    disp = FourierDispersion.nearest_neighbor(1.0)
    assert conjugate_paired(disp.harmonics)
    k1 = np.linspace(0, 2 * np.pi, 9)
    # the 1 x 1 fiber at zero flux is the dispersion value
    zero = peierls_quantize(disp, RationalFlux(0, 1))
    vals = np.array([zero.matrix(k, 0.0)[0, 0] for k in k1])
    assert np.allclose(vals.imag, 0.0, atol=1e-12)
    assert np.allclose(vals.real, 2.0 * np.cos(k1) + 2.0, atol=1e-12)
