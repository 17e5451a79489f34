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
from math import fmod, gcd, hypot, isfinite, pi
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleModelError


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


def conjugate_paired(harmonics) -> bool:
    """True when the Fourier series sum_h c_h e^{i (n, m) . x} is real.

    harmonics is a sequence of (n, m, c); repeated (n, m) entries add up. The
    series is real exactly when every summed coefficient c_{n,m} equals
    conj(c_{-n,-m}) to within 1e-12; a NaN or infinite coefficient fails.
    """
    table = {}
    for n, m, c in harmonics:
        table[(n, m)] = table.get((n, m), 0.0) + c
    for (n, m), c in table.items():
        diff = complex(c) - complex(table.get((-n, -m), 0.0)).conjugate()
        if not hypot(diff.real, diff.imag) <= 1e-12:
            return False
    return True


# 2 cos k1 + 2 cos k2 as (n, m, c) harmonics, the square-lattice hopping
# dispersion.
NEAREST_NEIGHBOR = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0))


@dataclass(frozen=True)
class BlochFiberFamily:
    """k-dependent Hermitian fiber H(k) = sum_t e^{i (n_t k1 + m_t k2)} M_t.

    Each term (n, m, cols, values) holds M_t as a permutation with values,
    like a weyl_translation: row j holds values[j] in column cols[j]. The
    terms must come in conjugate pairs so H(k) is Hermitian at every k.
    Storing the harmonic decomposition lets batch evaluate any array of
    momenta with one array operation per term instead of a loop per point.

    chambers declares that the fiber spectrum depends on k only through
    cos(q k1) + cos(q k2) (the Chambers relation). Only hofstadter_family
    sets it; it is never inferred from the terms.
    """

    dim: int
    terms: tuple  # ((n, m, cols, values), ...)
    chambers: bool = False

    def batch(self, k1, k2) -> np.ndarray:
        """Fibers H(k1, k2) at momenta broadcast against each other, shape
        np.broadcast(k1, k2).shape + (q, q): scalars give one fiber,
        (k1[:, None], k2) the product grid.

        Each term adds its phase at its q entries (j, cols[j]) only, in one
        fancy-index add; a term with n == 0 (m == 0) takes its phase from k2
        (k1) alone. The zeros a term leaves out would only add signed zeros
        onto a sum that starts at +0, and dropping a zero multiple of a
        finite momentum changes at most the sign of a zero argument, where
        exp gives 1 + 0j either way, so for finite momenta each fiber is
        bit-identical to the dense sum of e^{i (n k1 + m k2)} * M. The
        product is phase * value as there: numpy's SIMD complex multiply
        rounds the two orders differently. The result is a view of
        contiguous (q, q) + shape planes with the matrix axes last.
        """
        k1 = np.asarray(k1, dtype=float)
        k2 = np.asarray(k2, dtype=float)
        shape = np.broadcast(k1, k2).shape
        out = np.zeros((self.dim, self.dim) + shape, dtype=complex)
        rows = np.arange(self.dim)
        for n, m, cols, values in self.terms:
            phase = np.exp(1j * ((n * k1 if n else 0.0) + (m * k2 if m else 0.0)))
            out[rows, cols] += phase * values.reshape((-1,) + (1,) * len(shape))
        return out.transpose(*range(2, out.ndim), 0, 1)


def weyl_translation(flux: RationalFlux, n: int, m: int):
    """Weyl-ordered magnetic translation W(n, m) = e^{-i pi n m p/q} D^n C^m,
    held as (cols, phase): row j holds phase[j] in column cols[j].

    D is the cyclic down-shift (D x)_j = x_{j+1 mod q} and C the clock
    diag(e^{i 2 pi (p/q) j}) on C^q, so D C = e^{i 2 pi p/q} C D. The
    symmetrization phase makes W(n, m)^dag = W(-n, -m). The product is a
    permutation times a phase: cols[j] = j + n mod q and phase[j] =
    e^{i pi (p/q) (2 m cols[j] - n m)}, with one rounding in each angle.
    For m = 0 the phase is exactly 1 and W(n, 0) is the bare permutation.
    """
    q = flux.q
    cols = (np.arange(q) + n) % q
    if not m:
        return cols, np.ones(q, dtype=complex)
    return cols, np.exp(1j * pi * flux.value * (2 * m * cols - n * m))


def hofstadter_family(flux: RationalFlux) -> BlochFiberFamily:
    """Landau-gauge Bloch fiber family of the square-lattice magnetic model."""
    # W(-1, 0)^dag = W(1, 0), and the diagonal clock W(0, 1)^dag is its conjugate
    diag, clock = weyl_translation(flux, 0, 1)
    terms = (
        (1, 0, *weyl_translation(flux, -1, 0)),
        (-1, 0, *weyl_translation(flux, 1, 0)),
        (0, 1, diag, clock),
        (0, -1, diag, clock.conj()),
    )
    return BlochFiberFamily(dim=flux.q, terms=terms, chambers=True)


def peierls_quantize(harmonics, flux: RationalFlux) -> BlochFiberFamily:
    """Quantize a Bloch dispersion into a magnetic fiber family.

    harmonics is the dispersion sum_h c_h e^{i (n k1 + m k2)} as a sequence
    of (n, m, c) with integral n and m; any other (n, m) raises ValueError.
    Each harmonic maps to c e^{i (n k1 + m k2)} W(n, m) with W
    the Weyl-ordered weyl_translation at this flux. W(n, m)^dag = W(-n, -m)
    makes the result Hermitian for every real dispersion, mixed harmonics
    included.
    """
    checked = []
    for n, m, c in harmonics:
        if not (float(n).is_integer() and float(m).is_integer()):
            raise ValueError(f"harmonic ({n}, {m}, {c}) needs integral (n, m)")
        checked.append((int(n), int(m), complex(c)))
    if not conjugate_paired(checked):
        raise ValueError(
            "dispersion is not real: every harmonic (n, m, c) needs the "
            "partner (-n, -m, conj(c))"
        )
    terms = []
    for n, m, c in checked:
        cols, phase = weyl_translation(flux, n, m)
        terms.append((n, m, cols, c * phase))
    return BlochFiberFamily(dim=flux.q, terms=tuple(terms))


def box_flux(B: float, L: int) -> RationalFlux:
    """Exact plaquette flux 2B mod 1 of symmetric_gauge_box(B, L), reduced.

    The magnetic translations of the L x L torus close only at integer total
    flux 2 b L^2, with b = fmod(B, 1) the exact fractional part of B (B bit
    for bit when |B| < 1). The closure fixes the flux as k / L^2 with
    k = round(2 b L^2) mod L^2, so its denominator divides L^2.
    """
    if L < 1:
        raise ValueError(f"box side must be >= 1, got {L}")
    total = 2.0 * B * L * L
    if not isfinite(total):
        raise ConfigError(f"total flux 2*B*L^2 = {total:g} is not finite")
    total = 2.0 * fmod(B, 1.0) * L * L
    if abs(total - round(total)) > 1e-9:
        raise InfeasibleModelError(
            "magnetic-periodic closure needs integer total flux: "
            f"2*fmod(B, 1)*L^2 = {total:.6g} is not an integer"
        )
    flux = Fraction(round(total) % (L * L), L * L)
    return RationalFlux(flux.numerator, flux.denominator)


def symmetric_gauge_box(B: float, L: int) -> np.ndarray:
    """Symmetric-gauge magnetic hopping matrix on an L x L magnetic-periodic
    box.

    Row (n, m) couples to the four neighbors with phases e^{i 2 pi m B}
    (toward n+1), its conjugate (toward n-1), e^{-i 2 pi n B} (toward m+1)
    and its conjugate (toward m-1). Each plaquette then carries flux 2B.
    The wrap bonds pick up the twists e^{+i 2 pi B L m} along x and
    e^{-i 2 pi B L n} along y, which keep every plaquette, wrap plaquettes
    included, at flux 2B. The box exists only where box_flux(B, L) does.
    Phases use the exact b = fmod(B, 1).
    """
    box_flux(B, L)
    b = fmod(B, 1.0)
    n, m = np.divmod(np.arange(L * L), L)
    x_hop = np.exp(1j * (2.0 * pi * m * b))
    y_hop = np.exp(-1j * (2.0 * pi * n * b))
    # twists as numpy scalar products: the array multiply rounds some differently
    for k in range(L):
        x_hop[(L - 1) * L + k] *= np.exp(1j * 2.0 * pi * b * L * k)
        y_hop[k * L + L - 1] *= np.exp(-1j * 2.0 * pi * b * L * k)
    sources = np.tile(np.arange(L * L), 2)
    targets = np.concatenate((((n + 1) % L) * L + m, n * L + (m + 1) % L))
    hops = np.concatenate((x_hop, y_hop))
    h = np.zeros((L * L, L * L), dtype=complex)
    # every bond and its conjugate, added onto zeros: at L = 1 both bonds
    # and their conjugates land on one entry, so they are added, not set
    np.add.at(
        h,
        (np.concatenate((sources, targets)), np.concatenate((targets, sources))),
        np.concatenate((hops, hops.conj())),
    )
    return h


def add_onsite_disorder(
    matrix: np.ndarray, values: Sequence[float], clean_diagonal: np.ndarray
) -> np.ndarray:
    """matrix with its diagonal overwritten by clean_diagonal + values.

    clean_diagonal is the diagonal of the box without disorder, so a run of
    realizations rewrites one box in place instead of copying it. Returns
    matrix.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != len(matrix):
        raise ValueError(f"need {len(matrix)} on-site values, got {vals.size}")
    matrix[np.diag_indices_from(matrix)] = clean_diagonal + vals
    return matrix
