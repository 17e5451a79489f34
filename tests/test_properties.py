"""Property tests: Hausdorff metric axioms and Chambers invariance.

Examples are derandomized and no example database is kept, so every run
checks the same cases. Hypothesis also caches the literals it scans from the
source under its home directory; with the home at os.devnull that cache
cannot be written, and a run leaves no files behind.
"""

import os
from math import gcd

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fluxlab import BandIntervals, RationalFlux, exact_bands, hausdorff, hofstadter_family

set_hypothesis_home_dir(os.devnull)
fixed = settings(derandomize=True, database=None, deadline=None)


@st.composite
def interval_unions(draw):
    """Disjoint closed intervals as an ascending (n, 2) array; some are points."""
    cuts = draw(
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12, unique=True)
    )
    cuts = np.sort(cuts)[: 2 * (len(cuts) // 2)]
    los, his = cuts[0::2], cuts[1::2]
    points = draw(st.lists(st.booleans(), min_size=los.size, max_size=los.size))
    return np.column_stack((los, np.where(points, los, his)))


def forms(iv):
    """Every accepted form of one interval union; the flat value array only
    describes a union of points."""
    out = [iv, BandIntervals(intervals=tuple(map(tuple, iv)), gap_tol=0.0)]
    if np.array_equal(iv[:, 0], iv[:, 1]):
        out.append(iv[:, 0])
    return out


@fixed
@given(interval_unions(), interval_unions(), interval_unions())
def test_hausdorff_metric_axioms(a, b, c):
    dab = hausdorff(a, b)
    assert dab >= 0.0
    assert hausdorff(b, a) == dab
    assert hausdorff(a, a) == 0.0
    assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12
    assert {hausdorff(fa, fb) for fa in forms(a) for fb in forms(b)} == {dab}


@st.composite
def fluxes(draw):
    q = draw(st.integers(1, 12))
    p = draw(st.integers(0, q).filter(lambda p: gcd(p, q) == 1))
    return RationalFlux(p, q)


# maps of k that keep cos(q k1) + cos(q k2)
CHAMBERS_MOVES = {
    "swap": lambda k1, k2, q: (k2, k1),
    "shift_k1": lambda k1, k2, q: (k1 + 2.0 * np.pi / q, k2),
    "shift_k2": lambda k1, k2, q: (k1, k2 - 2.0 * np.pi / q),
    "reflect": lambda k1, k2, q: (-k1, k2),
}


@fixed
@given(
    fluxes(),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, 2.0 * np.pi),
    st.sampled_from(sorted(CHAMBERS_MOVES)),
)
def test_chambers_invariance(flux, k1, k2, move):
    family = hofstadter_family(flux)
    w = np.linalg.eigvalsh(family.matrix(k1, k2))
    moved = np.linalg.eigvalsh(family.matrix(*CHAMBERS_MOVES[move](k1, k2, flux.q)))
    assert np.max(np.abs(w - moved)) < 1e-12
    bands = exact_bands(flux)
    assert np.all(w >= bands[:, 0] - 1e-12)
    assert np.all(w <= bands[:, 1] + 1e-12)
