"""Property tests: Hausdorff metric axioms, Chambers invariance, and the
exit-code contract of the continuum commands.

Examples are derandomized and no example database is kept, so every run
checks the same cases. Hypothesis also caches the literals it scans from the
source under its home directory; with the home at os.devnull that cache
cannot be written, and a run leaves no files behind.
"""

import io
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fluxlab import BandIntervals, RationalFlux, exact_bands, hausdorff, hofstadter_family
from fluxlab.cli import main

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


def table_rows(csv_text):
    """Rows of a CSV table as {column: text}, metadata lines skipped."""
    header, *rows = [line for line in csv_text.splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def usually(valid, invalid):
    """Draws from `invalid` one time in four."""
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 0 else valid)


counts = usually(st.sampled_from(["1", "2", "3"]), st.sampled_from(["-1", "0", "2.7"]))


@fixed
@given(
    st.sampled_from(["continuum-spectrum", "lll-compare", "dynamics-defect"]),
    usually(
        st.floats(0.0, 20.0, exclude_min=True),
        st.sampled_from([math.nan, math.inf, 0.0, -1.0]),
    ),
    counts,
    counts,
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1e308, -1e308]),
    ),
)
def test_continuum_commands_keep_the_exit_code_contract(
    command, field, ncells, nlevels, amplitude
):
    if field > 0 and math.isfinite(field) and ncells in ("1", "2", "3"):
        assume(field * int(ncells) ** 2 / math.pi <= 30)  # at most 30 flux quanta
    argv = [command, f"--B={field!r}", f"--ncells={ncells}", f"--nlevels={nlevels}",
            f"--amplitude={amplitude!r}"]
    if command == "dynamics-defect":
        argv.append("--times=0.5,1")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        for row in table_rows(out.getvalue()):
            for column, text in row.items():
                if column != "cluster_gap" and text not in ("true", "false"):
                    assert math.isfinite(float(text)), (argv, column, text)
