"""Tight-binding magnetic lattice builders.

Conventions used throughout:

* Landau-gauge Bloch fibers at rational flux p/q are q x q matrices with
  diagonal 2 cos(k2 + 2 pi (p/q) j) and nearest-neighbor hops e^{i k1}
  including the cyclic wrap, i.e. the Bloch phase is distributed over every
  bond rather than lumped on the corner. Fibers are exactly 2 pi periodic in
  both k components as matrices.
* The symmetric-gauge box uses hopping phases e^{+-i 2 pi m B} along x and
  e^{-+i 2 pi n B} along y for the site (n, m). The flux through one plaquette
  of that operator is 2B mod 1, not B.
* Box operators index site (n, m) as n * L + m with n the x coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, pi
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleModelError


@dataclass(frozen=True)
class RationalFlux:
    """Reduced rational flux p/q in units of one flux quantum per plaquette.

    The pair must be in lowest terms with q >= 1; a non-reduced pair is
    rejected rather than silently reduced so that callers stay aware of the
    fiber dimension q they are asking for.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"flux denominator must be >= 1, got {self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(
                f"flux {self.p}/{self.q} is not reduced; "
                f"divide out gcd {gcd(self.p, self.q)} first"
            )

    @property
    def value(self) -> float:
        return self.p / self.q

    @classmethod
    def from_string(cls, text: str) -> "RationalFlux":
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"flux must look like 'p/q', got {text!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"flux must be a pair of integers, got {text!r}") from exc
        return cls(p, q)

    @classmethod
    def from_float(cls, value: float, q_max: int = 64) -> "RationalFlux":
        """Best rational approximation with denominator bounded by q_max.

        Uses the continued-fraction convergent machinery of
        Fraction.limit_denominator.
        """
        if q_max < 1:
            raise ValueError("q_max must be >= 1")
        f = Fraction(value).limit_denominator(q_max)
        return cls(f.numerator, f.denominator)


def conjugate_paired(harmonics) -> bool:
    """True when the Fourier series sum_h c_h e^{i (n, m) . x} is real.

    harmonics is a sequence of (n, m, c); repeated (n, m) entries add up. The
    series is real exactly when every summed coefficient c_{n,m} equals
    conj(c_{-n,-m}) to within 1e-12.
    """
    table = {}
    for n, m, c in harmonics:
        table[(n, m)] = table.get((n, m), 0.0) + c
    for (n, m), c in table.items():
        if abs(c - np.conj(table.get((-n, -m), 0.0))) > 1e-12:
            return False
    return True


@dataclass(frozen=True)
class FourierDispersion:
    """Finite Fourier series on the 2-torus: sum_h c_h e^{i (n k1 + m k2)}.

    harmonics is a sequence of (n, m, coefficient). A real-valued dispersion
    must contain the conjugate partner (-n, -m, conj(c)) for every harmonic.
    """

    harmonics: tuple

    def __init__(self, harmonics: Iterable[tuple]):
        entries = []
        for n, m, c in harmonics:
            entries.append((int(n), int(m), complex(c)))
        object.__setattr__(self, "harmonics", tuple(entries))

    @classmethod
    def nearest_neighbor(cls, amplitude: float = 1.0) -> "FourierDispersion":
        """2 a cos k1 + 2 a cos k2, the square-lattice hopping dispersion."""
        a = float(amplitude)
        return cls([(1, 0, a), (-1, 0, a), (0, 1, a), (0, -1, a)])


@dataclass(frozen=True)
class BlochFiberFamily:
    """k-dependent Hermitian fiber H(k) = sum_t e^{i (n_t k1 + m_t k2)} M_t.

    The terms must come in conjugate pairs so H(k) is Hermitian at every k.
    Storing the harmonic decomposition keeps evaluation over large k grids a
    single einsum instead of a Python loop per point.

    chambers declares that the fiber spectrum depends on k only through
    cos(q k1) + cos(q k2) (the Chambers relation). Only hofstadter_family
    sets it; it is never inferred from the terms.
    """

    flux: RationalFlux
    dim: int
    terms: tuple  # ((n, m, matrix), ...)
    chambers: bool = False

    def matrix(self, k1: float, k2: float) -> np.ndarray:
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for n, m, mat in self.terms:
            h += np.exp(1j * (n * k1 + m * k2)) * mat
        return h

    def batch(self, k1_vals: np.ndarray, k2_vals: np.ndarray) -> np.ndarray:
        """Stack of fibers on the outer product grid, shape (N1, N2, q, q).

        Each term adds its phase grid only at the nonzero entries of its
        matrix (q of them for a Weyl translation), so a term costs q grid
        passes instead of q^2. A term with n == 0 (m == 0) takes its phase
        on the k2 (k1) axis alone and broadcasts it. Skipping a zero entry
        only skips adding a signed zero, and dropping a zero multiple of a
        finite momentum changes at most the sign of a zero argument, where
        exp gives 1 + 0j either way, so for finite momenta the stack is
        bit-identical to the dense sum. The entries are accumulated as
        contiguous (q, q, N1, N2) planes and returned as a view with the
        matrix axes last.
        """
        k1_vals = np.asarray(k1_vals, dtype=float)
        k2_vals = np.asarray(k2_vals, dtype=float)
        kk1 = k1_vals[:, None]
        kk2 = k2_vals[None, :]
        out = np.zeros((self.dim, self.dim, len(k1_vals), len(k2_vals)), dtype=complex)
        for n, m, mat in self.terms:
            phase = np.exp(1j * ((n * kk1 if n else 0.0) + (m * kk2 if m else 0.0)))
            for i, j in zip(*np.nonzero(mat)):
                out[i, j] += phase * mat[i, j]
        return np.moveaxis(out, (0, 1), (2, 3))


def weyl_translation(flux: RationalFlux, n: int, m: int) -> np.ndarray:
    """Weyl-ordered magnetic translation W(n, m) = e^{-i pi n m p/q} D^n C^m.

    D is the cyclic down-shift (D x)_j = x_{j+1 mod q} and C the clock
    diag(e^{i 2 pi (p/q) j}) on C^q, so D C = e^{i 2 pi p/q} C D. The
    symmetrization phase makes W(n, m)^dag = W(-n, -m). The product is a
    permutation times a phase: row j holds e^{i pi (p/q) (2 m k - n m)} in
    column k = j + n mod q, with one rounding in each phase angle. For m = 0
    the phase is exactly 1 and W(n, 0) is the bare permutation.
    """
    q = flux.q
    cols = (np.arange(q) + n) % q
    w = np.zeros((q, q), dtype=complex)
    phase = np.exp(1j * pi * flux.value * (2 * m * cols - n * m)) if m else 1.0
    w[np.arange(q), cols] = phase
    return w


def hofstadter_family(flux: RationalFlux) -> BlochFiberFamily:
    """Landau-gauge Bloch fiber family of the square-lattice magnetic model."""
    s = weyl_translation(flux, -1, 0)
    # 2 cos(k2 + 2 pi alpha j) split into e^{+-i k2} clock factors.
    c = weyl_translation(flux, 0, 1)
    terms = (
        (1, 0, s),
        (-1, 0, s.conj().T),
        (0, 1, c),
        (0, -1, c.conj().T),
    )
    return BlochFiberFamily(flux=flux, dim=flux.q, terms=terms, chambers=True)


def peierls_quantize(disp: FourierDispersion, flux: RationalFlux) -> BlochFiberFamily:
    """Quantize a Bloch dispersion into a magnetic fiber family.

    Each harmonic (n, m, c) maps to c e^{i (n k1 + m k2)} W(n, m) with W the
    Weyl-ordered weyl_translation at this flux. W(n, m)^dag = W(-n, -m)
    makes the result Hermitian for every real dispersion, mixed harmonics
    included.
    """
    if not conjugate_paired(disp.harmonics):
        raise ValueError(
            "dispersion is not real: every harmonic (n, m, c) needs the "
            "partner (-n, -m, conj(c))"
        )
    terms = tuple(
        (n, m, c * weyl_translation(flux, n, m)) for n, m, c in disp.harmonics
    )
    return BlochFiberFamily(flux=flux, dim=flux.q, terms=terms)


@dataclass(frozen=True)
class BoxOperator:
    """Finite L x L magnetic hopping operator.

    boundary is either "open" or "magnetic-periodic". The matrix acts on
    site indices n * L + m.
    """

    side: int
    boundary: str
    matrix: np.ndarray


def symmetric_gauge_box(B: float, L: int, boundary: str = "open") -> BoxOperator:
    """Symmetric-gauge magnetic hopping operator on an L x L box.

    Row (n, m) couples to the four neighbors with phases e^{i 2 pi m B}
    (toward n+1), its conjugate (toward n-1), e^{-i 2 pi n B} (toward m+1)
    and its conjugate (toward m-1). Each plaquette then carries flux 2B.

    With boundary = "magnetic-periodic" the wrap bonds pick up the twists
    e^{+i 2 pi B L m} along x and e^{-i 2 pi B L n} along y, which keep every
    plaquette, wrap plaquettes included, at flux 2B. Consistency of the twist
    around the corner requires the total flux 2 B L^2 to be an integer.
    """
    if L < 1:
        raise ValueError(f"box side must be >= 1, got {L}")
    if boundary not in ("open", "magnetic-periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if boundary == "magnetic-periodic":
        total = 2.0 * B * L * L
        if abs(total - round(total)) > 1e-9:
            raise InfeasibleModelError(
                "magnetic-periodic closure needs integer total flux: "
                f"2*B*L^2 = {total:.6g} is not an integer"
            )

    n_sites = L * L
    h = np.zeros((n_sites, n_sites), dtype=complex)

    def idx(n, m):
        return (n % L) * L + (m % L)

    for n in range(L):
        for m in range(L):
            # bond (n, m) -> (n+1, m)
            if n + 1 < L:
                h[idx(n, m), idx(n + 1, m)] += np.exp(1j * 2.0 * pi * m * B)
            elif boundary == "magnetic-periodic":
                h[idx(n, m), idx(n + 1, m)] += np.exp(1j * 2.0 * pi * m * B) * np.exp(
                    1j * 2.0 * pi * B * L * m
                )
            # bond (n, m) -> (n, m+1)
            if m + 1 < L:
                h[idx(n, m), idx(n, m + 1)] += np.exp(-1j * 2.0 * pi * n * B)
            elif boundary == "magnetic-periodic":
                h[idx(n, m), idx(n, m + 1)] += np.exp(-1j * 2.0 * pi * n * B) * np.exp(
                    -1j * 2.0 * pi * B * L * n
                )
    h = h + h.conj().T
    return BoxOperator(side=L, boundary=boundary, matrix=h)


def add_onsite_disorder(op: BoxOperator, values: Sequence[float]) -> BoxOperator:
    """Return a new box operator with real on-site energies added."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != op.side * op.side:
        raise ValueError(
            f"need {op.side * op.side} on-site values for side {op.side}, "
            f"got {vals.size}"
        )
    return BoxOperator(
        side=op.side,
        boundary=op.boundary,
        matrix=op.matrix + np.diag(vals),
    )
