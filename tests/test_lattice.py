"""Tests for the magnetic lattice builders."""

import math

import numpy as np
import pytest

from fluxlab import (
    NEAREST_NEIGHBOR,
    BlochFiberFamily,
    FourierPotential,
    InfeasibleModelError,
    RationalFlux,
    add_onsite_disorder,
    box_flux,
    conjugate_paired,
    distance_to_intervals,
    exact_bands,
    hofstadter_family,
    peierls_quantize,
    symmetric_gauge_box,
    weyl_translation,
)
from oracles import dense_term, dense_weyl, harper_fiber, plaquette_flux, site_loop_box

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


def test_zero_flux_fiber_is_dispersion_value():
    h = hofstadter_family(RationalFlux(0, 1)).batch(0.0, 0.0)
    assert h.shape == (1, 1)
    assert abs(h[0, 0] - 4.0) < 1e-14
    rng = np.random.default_rng(11)
    for _ in range(20):
        k1, k2 = rng.uniform(-7, 7, size=2)
        h = hofstadter_family(RationalFlux(0, 1)).batch(k1, k2)
        expect = 2.0 * np.cos(k1) + 2.0 * np.cos(k2)
        assert abs(h[0, 0] - expect) < 1e-12


def test_half_flux_fiber_matrix_and_eigenvalues():
    h = hofstadter_family(RationalFlux(1, 2)).batch(0.0, 0.0)
    assert np.allclose(h, [[2, 2], [2, -2]], atol=1e-14)
    w = np.linalg.eigvalsh(h)
    target = 2.0 * np.sqrt(2.0)
    assert np.allclose(w, [-target, target], atol=1e-12)


def test_fiber_dimension_equals_denominator():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = hofstadter_family(RationalFlux(1, 3)).batch(k1, k2)
        assert h.shape == (3, 3)
        assert len(np.linalg.eigvalsh(h)) == 3


def test_builders_hermitian_everywhere():
    rng = np.random.default_rng(23)
    fluxes = [RationalFlux(0, 1), RationalFlux(1, 2), RationalFlux(2, 5),
              RationalFlux(3, 7), RationalFlux(5, 11)]
    for flux in fluxes:
        for _ in range(8):
            k1, k2 = rng.uniform(-10, 10, size=2)
            assert hermiticity(hofstadter_family(flux).batch(k1, k2)) < HERM_TOL
            assert hermiticity(harper_fiber(flux, k2 / 7.0, k1)) < HERM_TOL
    for k in rng.integers(0, 50, size=4):
        assert hermiticity(symmetric_gauge_box(k / 50.0, 5)) < HERM_TOL


def test_fiber_two_pi_periodic():
    fam = hofstadter_family(RationalFlux(2, 5))
    rng = np.random.default_rng(2)
    for _ in range(5):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = fam.batch(k1, k2)
        assert np.allclose(h, fam.batch(k1 + 2 * np.pi, k2), atol=1e-12)
        assert np.allclose(h, fam.batch(k1, k2 - 2 * np.pi), atol=1e-12)


def test_spectrum_invariant_under_k1_subcell_shift():
    # the Bloch phase shift by 2 pi / q is a gauge move: eigenvalues match
    rng = np.random.default_rng(7)
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 8)):
        step = 2.0 * np.pi / flux.q
        for _ in range(6):
            k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
            fam = hofstadter_family(flux)
            w0 = np.linalg.eigvalsh(fam.batch(k1, k2))
            w1 = np.linalg.eigvalsh(fam.batch(k1 + step, k2))
            assert np.max(np.abs(w0 - w1)) < 1e-10


def test_flux_shift_by_one_gives_identical_fibers():
    k1, k2 = 0.7, 1.9
    h0 = hofstadter_family(RationalFlux(1, 3)).batch(k1, k2)
    h1 = hofstadter_family(RationalFlux(4, 3)).batch(k1, k2)
    assert np.allclose(h0, h1, atol=1e-12)


def test_flux_negation_preserves_spectrum_union():
    ks = 2.0 * np.pi * np.arange(16) / 16
    wp = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(1, 3)).batch(ks[:, None], ks)).ravel())
    wm = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(-1, 3)).batch(ks[:, None], ks)).ravel())
    assert np.max(np.abs(wp - wm)) < 1e-10


def test_spectrum_union_energy_reflection():
    # bipartite symmetry: the eigenvalue multiset is exactly -itself on even grids
    ks = 2.0 * np.pi * np.arange(32) / 32
    vals = np.sort(np.linalg.eigvalsh(
        hofstadter_family(RationalFlux(2, 5)).batch(ks[:, None], ks)).ravel())
    assert np.max(np.abs(vals + vals[::-1])) < 1e-10


def test_zero_field_box_is_grid_adjacency():
    op = symmetric_gauge_box(0.0, 3)
    cycle = np.roll(np.eye(3), 1, axis=1)
    cycle = cycle + cycle.T
    expect = np.kron(cycle, np.eye(3)) + np.kron(np.eye(3), cycle)
    assert np.allclose(op, expect, atol=1e-14)


def test_plaquette_flux_is_twice_field():
    # B = k / (2 L^2) closes the box; the wrap plaquettes carry 2B as well
    rng = np.random.default_rng(31)
    for k in rng.integers(0, 32, size=10):
        b = k / 32.0
        op = symmetric_gauge_box(b, 4)
        for n in range(4):
            for m in range(4):
                got = plaquette_flux(op, 4, n, m)
                expect = (2.0 * b) % 1.0
                dev = min(abs(got - expect), 1.0 - abs(got - expect))
                assert dev < 1e-12
    assert plaquette_flux(symmetric_gauge_box(0.0, 3), 3) == 0.0


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
    for n in range(L - 1):
        for m in range(L - 1):
            assert abs(plaquette_flux(h, L, n, m) - alpha) < 1e-12
    # the hand-built box is open: its wrap plaquettes miss a bond
    with pytest.raises(ValueError, match="missing bond"):
        plaquette_flux(h, L, L - 1, 0)


def test_box_flux_quantization():
    op = symmetric_gauge_box(1.0 / 8.0, 4)  # 2BL^2 = 4
    for n in range(4):
        for m in range(4):
            got = plaquette_flux(op, 4, n, m)
            assert abs(got - 0.25) < 1e-12
    assert box_flux(1.0 / 8.0, 4) == RationalFlux(1, 4)
    assert box_flux(-1.0 / 8.0, 4) == RationalFlux(3, 4)
    with pytest.raises(InfeasibleModelError):
        symmetric_gauge_box(0.1, 3)  # 2BL^2 = 1.8
    # 18 B rounds to an integer here, but 2 fmod(B, 1) L^2 = 4.5 does not close
    with pytest.raises(InfeasibleModelError):
        symmetric_gauge_box(2.0**50 + 0.25, 3)
    with pytest.raises(ValueError):
        symmetric_gauge_box(0.125, 0)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 8, 16, 30])
def test_box_is_bit_identical_to_site_loop_oracle(L):
    # every B = k / (2 L^2) with |B| < 1 closes the box, and B + 3 and the
    # huge fields give the same phases, taken at fmod(B, 1); at L = 30 every
    # 53rd k keeps the oracle's loop to a few seconds
    K = 2 * L * L
    fields = [k / K for k in range(1 - K, K, 53 if L == 30 else 1)]
    for B in fields + [B + 3 for B in fields] + [1e17, -1e300]:
        want = site_loop_box(math.fmod(B, 1.0), L)
        got = symmetric_gauge_box(B, L)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), B


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_box_spectrum_lies_in_the_exact_bands_of_its_flux(L):
    # every closing B, negative ones and B + 3 included: the box samples the
    # bands of its plaquette flux 2B mod 1 at L^2 momenta
    K = 2 * L * L
    for B in [k / K for k in range(1 - K, K)] + [3 + k / K for k in range(K)]:
        flux = box_flux(B, L)
        assert L * L % flux.q == 0
        vals = np.linalg.eigvalsh(symmetric_gauge_box(B, L))
        far = distance_to_intervals(vals, exact_bands(flux)).max()
        assert far < 1e-10, (B, flux, far)


@pytest.mark.parametrize("L", [1, 6, 8, 30])
def test_add_onsite_disorder_is_bit_identical_to_dense_sum(L):
    rng = np.random.default_rng(L)
    for k in (0, 1, -3, L * L):
        box = symmetric_gauge_box(k / (2 * L * L), L)
        values = rng.uniform(-1, 1, L * L)
        want = box + np.diag(values)
        clean_diagonal = box.diagonal().copy()
        got = add_onsite_disorder(box, values, clean_diagonal)
        assert got is box
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # rewriting the diagonal of a box that holds an earlier realization,
        # from the clean diagonal, gives the same floats
        add_onsite_disorder(box, rng.uniform(-1, 1, L * L), clean_diagonal)
        reused = add_onsite_disorder(box, values, clean_diagonal)
        assert reused is box
        assert np.array_equal(reused.view(np.uint64), want.view(np.uint64))


def test_peierls_constant_dispersion():
    disp = [(0, 0, 2.5)]
    fam = peierls_quantize(disp, RationalFlux(1, 3))
    for k1, k2 in ((0.0, 0.0), (1.0, 2.0), (4.0, 5.0)):
        assert np.allclose(fam.batch(k1, k2), 2.5 * np.eye(3), atol=1e-12)


def test_peierls_matches_direct_fiber():
    disp = NEAREST_NEIGHBOR
    ks = 2.0 * np.pi * np.arange(8) / 8
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5)):
        fam = peierls_quantize(disp, flux)
        ref = hofstadter_family(flux)
        wq = np.linalg.eigvalsh(fam.batch(ks[:, None], ks))
        wr = np.linalg.eigvalsh(ref.batch(ks[:, None], ks))
        assert np.max(np.abs(wq - wr)) < 1e-10


def test_peierls_mixed_harmonic_hermitian():
    disp = NEAREST_NEIGHBOR + ((1, 1, 0.05), (-1, -1, 0.05))
    assert conjugate_paired(disp)
    fam = peierls_quantize(disp, RationalFlux(1, 3))
    rng = np.random.default_rng(17)
    for _ in range(10):
        k1, k2 = rng.uniform(0, 2 * np.pi, size=2)
        h = fam.batch(k1, k2)
        assert h.shape == (3, 3)
        assert hermiticity(h) < HERM_TOL


def dense_term_sum(fam, k1, k2):
    """sum_t e^{i (n_t k1 + m_t k2)} * M_t over every entry of every term,
    each term written out dense, at the broadcast momenta."""
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    out = np.zeros(np.broadcast_shapes(k1.shape, k2.shape) + (fam.dim, fam.dim), dtype=complex)
    for n, m, cols, values in fam.terms:
        out += np.exp(1j * (n * k1 + m * k2))[..., None, None] * dense_term(fam.dim, cols, values)
    return out


def test_batch_is_bit_identical_to_dense_term_sum():
    rng = np.random.default_rng(3)
    # a random phased permutation with one zero value, and its adjoint
    cols = rng.permutation(4)
    values = rng.normal(size=4) + 1j * rng.normal(size=4)
    values[1] = 0.0
    adjoint = np.argsort(cols)
    pair = BlochFiberFamily(
        dim=4, terms=((2, -1, cols, values), (-2, 1, adjoint, values[adjoint].conj()))
    )
    mixed = NEAREST_NEIGHBOR + ((1, 1, 0.3 + 0.2j), (-1, -1, 0.3 - 0.2j))
    families = [pair, peierls_quantize(mixed, RationalFlux(2, 5))]
    families += [hofstadter_family(RationalFlux(p, q)) for p, q in ((0, 1), (1, 2), (-3, 7))]
    # the negated grids put -0.0 among the momenta
    g1 = 2.0 * np.pi * np.arange(9) / 9
    g2 = 2.0 * np.pi * np.arange(6) / 6
    k1 = np.concatenate((g1, -g1, rng.uniform(-10, 10, 4)))
    k2 = np.concatenate((g2, -g2, rng.uniform(-10, 10, 3)))
    paired = rng.permutation(np.concatenate((k2, rng.uniform(-10, 10, k1.size - k2.size))))
    momenta = [(k1[:, None], k2), (k1, paired), (paired, k1)]
    momenta += [(a, b) for a in (0.0, -0.0, k1[3], k1[-1]) for b in (0.0, -0.0, k2[4], k2[-1])]
    for fam in families:
        for a, b in momenta:
            dense = dense_term_sum(fam, a, b)
            got = np.ascontiguousarray(fam.batch(a, b))
            assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b)) + (fam.dim, fam.dim)
            assert np.array_equal(got.view(np.uint64), dense.view(np.uint64))


def test_peierls_rejects_non_real_dispersion():
    disp = [(1, 0, 1.0)]
    assert not conjugate_paired(disp)
    with pytest.raises(ValueError):
        peierls_quantize(disp, RationalFlux(1, 3))


def test_nan_and_infinite_harmonics_are_not_real():
    # abs(nan - conj(partner)) > 1e-12 is False, so an unpaired NaN would
    # pass a test written with >; a paired NaN or inf is no real series either
    nan, inf = float("nan"), float("inf")
    assert not conjugate_paired([(1, 0, nan)])
    assert not conjugate_paired([(1, 0, nan), (-1, 0, nan)])
    assert not conjugate_paired([(1, 0, inf), (-1, 0, inf)])
    assert not conjugate_paired([(1, 0, 1.5e308 + 1.5e308j)])
    with pytest.raises(ValueError, match="not real"):
        peierls_quantize([(1, 0, nan)], RationalFlux(1, 3))
    with pytest.raises(ValueError, match="not real"):
        FourierPotential([(1, 0, nan)])


def test_magnetic_translations_commutation():
    for flux in (RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 7)):
        u, v = dense_weyl(flux, 1, 0), dense_weyl(flux, 0, 1)
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
                w = dense_weyl(flux, n, m)
                assert np.max(np.abs(w - reference_weyl(flux, n, m))) < 1e-12
                assert np.max(np.abs(w.conj().T - dense_weyl(flux, -n, -m))) < 1e-12


def test_weyl_translation_is_a_shift_with_phases():
    for q in (1, 2, 5, 12):
        for p in range(-q, q + 1):
            if math.gcd(p, q) != 1:
                continue
            for n in range(-3, 4):
                for m in range(-3, 4):
                    cols, phase = weyl_translation(RationalFlux(p, q), n, m)
                    assert np.array_equal(cols, (np.arange(q) + n) % q)
                    assert phase.shape == (q,) and phase.dtype == complex
                    if m == 0:
                        ones = np.ones(q, dtype=complex)
                        assert np.array_equal(phase.view(np.uint64), ones.view(np.uint64))


def test_hofstadter_terms_are_adjoint_pairs():
    for q in range(1, 13):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            terms = {(n, m): dense_term(q, cols, values)
                     for n, m, cols, values in hofstadter_family(RationalFlux(p, q)).terms}
            assert set(terms) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
            for (n, m), mat in terms.items():
                assert np.array_equal(mat, terms[(-n, -m)].conj().T), (p, q, n, m)


def test_peierls_rejects_non_integer_harmonics():
    flux = RationalFlux(1, 3)
    # truncated to integers, the half harmonics would give the constant
    # fiber 2 I and (1.9, 0) the harmonic (1, 0)
    for disp in ([(0.5, 0, 1), (-0.5, 0, 1)], [(1.9, 0, 1.0), (-1.9, 0, 1.0)],
                 [(0, np.float64(0.5), 1), (0, -0.5, 1)], [(float("nan"), 0, 1)]):
        with pytest.raises(ValueError, match=r"harmonic \("):
            peierls_quantize(disp, flux)
    # integral floats and numpy integers are the integers they hold
    whole = [(1.0, 0.0, 1.0), (-1.0, np.int64(0), 1.0), (np.int32(0), 1, 1.0), (0, -1.0, 1.0)]
    got = peierls_quantize(whole, flux).batch([0.3, -1.2], [0.7, 2.0])
    want = peierls_quantize(NEAREST_NEIGHBOR, flux).batch([0.3, -1.2], [0.7, 2.0])
    assert np.array_equal(got, want)


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
            b = hofstadter_family(flux).batch(k, 2.0 * np.pi * theta)
            assert np.max(np.abs(a - b)) < 1e-12


def test_add_onsite_disorder_shift_and_validation():
    op = symmetric_gauge_box(1.0 / 8.0, 4)
    clean = op.diagonal().copy()
    work = op.copy()
    same = add_onsite_disorder(work, np.zeros(16), clean)
    assert np.array_equal(same, op)

    shifted = add_onsite_disorder(work, np.full(16, 0.7), clean)
    w0 = np.linalg.eigvalsh(op)
    w1 = np.linalg.eigvalsh(shifted)
    assert np.max(np.abs(w1 - (w0 + 0.7))) < 1e-10

    with pytest.raises(ValueError):
        add_onsite_disorder(work, np.zeros(15), clean)

    rng = np.random.default_rng(3)
    field = rng.uniform(-1, 1, size=16)
    a = add_onsite_disorder(work, field, clean).copy()
    b = add_onsite_disorder(work, field, clean)
    assert np.array_equal(a, b)
    # taking the disordered diagonal as the clean one adds the field twice
    c = add_onsite_disorder(work, field, a.diagonal())
    assert np.allclose(c - op, np.diag(2.0 * field), atol=1e-14)


def test_dispersion_evaluate_and_reality():
    disp = NEAREST_NEIGHBOR
    assert conjugate_paired(disp)
    k1 = np.linspace(0, 2 * np.pi, 9)
    # the 1 x 1 fiber at zero flux is the dispersion value
    zero = peierls_quantize(disp, RationalFlux(0, 1))
    vals = zero.batch(k1, 0.0)[:, 0, 0]
    assert np.allclose(vals.imag, 0.0, atol=1e-12)
    assert np.allclose(vals.real, 2.0 * np.cos(k1) + 2.0, atol=1e-12)
