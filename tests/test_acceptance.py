"""Acceptance checks for the full experiment suite.

Each test prints one `acceptance NN pass/FAIL: ...` line with the measured
quantities, then asserts the same conditions, so a plain pytest run shows a
scoreboard for the eleven shipped guarantees.
"""

import json
import time

import numpy as np

from fluxlab import (
    FourierPotential,
    RationalFlux,
    add_onsite_disorder,
    anderson_realization,
    band_intervals,
    chern_numbers,
    continuum_hamiltonian,
    eigenvalues_hermitian,
    ensemble_dos,
    gap_fill_fraction,
    hausdorff,
    hofstadter_family,
    spectrum_union,
    symmetric_gauge_box,
    torus_basis,
)
from fluxlab.cli import main
from oracles import harper_fiber


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    t0 = time.monotonic()
    code = main(list(args) + ["--out", str(out)])
    return code, time.monotonic() - t0, out


def read_table(path):
    meta = {}
    columns = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                try:
                    meta[key] = json.loads(value)
                except json.JSONDecodeError:
                    meta[key] = value
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"acceptance {number:02d} {'pass' if ok else 'FAIL'}: {detail}")


def test_acceptance_01_zero_flux_band(tmp_path, capsys):
    code, elapsed, out = run_cli(
        ["fiber-spectrum", "--flux", "0/1", "--kgrid", "200"], tmp_path, "zero.csv"
    )
    _, _, rows = read_table(out)
    lo, hi = float(rows[0][1]), float(rows[0][2])
    dist = max(abs(lo + 4.0), abs(hi - 4.0))
    ok = code == 0 and len(rows) == 1 and dist <= 1e-3 and elapsed < 1.0
    report(
        capsys,
        1,
        ok,
        f"zero-flux band [{lo:.6f}, {hi:.6f}], distance {dist:.2e} "
        f"to [-4, 4], {elapsed:.2f} s",
    )
    assert code == 0
    assert len(rows) == 1
    assert dist <= 1e-3
    assert elapsed < 1.0


def test_acceptance_02_half_flux_closed_form(capsys):
    t0 = time.monotonic()
    vals = spectrum_union(hofstadter_family(RationalFlux(1, 2)), 131072, 32)
    edge = 2.0 * np.sqrt(2.0)
    closed = np.array([[-edge, edge]])
    dist = hausdorff(vals, closed)
    gap_at_zero = max(
        0.0, float(vals[vals >= 0.0].min() - vals[vals <= 0.0].max())
    )
    elapsed = time.monotonic() - t0
    ok = dist <= 1e-4 and gap_at_zero < 1e-3 and elapsed < 5.0
    report(
        capsys,
        2,
        ok,
        f"half-flux distance {dist:.2e} to [-2*sqrt(2), 2*sqrt(2)], "
        f"gap at 0 = {gap_at_zero:.1e}, {elapsed:.2f} s",
    )
    assert dist <= 1e-4
    assert gap_at_zero < 1e-3
    assert elapsed < 5.0


def test_acceptance_03_gauge_equivalence(tmp_path, capsys):
    code, elapsed, out = run_cli(["gauge-check", "--B", "1/8"], tmp_path, "gauge.csv")
    _, cols, rows = read_table(out)
    dist = float(rows[0][cols.index("hausdorff")])
    ok = code == 0 and dist < 0.05 and elapsed < 10.0
    report(
        capsys,
        3,
        ok,
        f"box vs fiber spectra at 2B = 1/4: hausdorff {dist:.2e} "
        f"(tol 0.05), {elapsed:.2f} s",
    )
    assert code == 0
    assert dist < 0.05
    assert elapsed < 10.0


def test_acceptance_04_peierls_identity(tmp_path, capsys):
    code, elapsed, out = run_cli(["peierls-check"], tmp_path, "peierls.csv")
    _, cols, rows = read_table(out)
    worst = max(float(r[cols.index("max_eigenvalue_deviation")]) for r in rows)
    ok = code == 0 and worst <= 1e-10 and elapsed < 5.0
    report(
        capsys,
        4,
        ok,
        f"quantized dispersion vs direct fiber at 1/3 and 2/5: "
        f"max deviation {worst:.1e} (tol 1e-10), {elapsed:.2f} s",
    )
    assert code == 0
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_acceptance_05_quasiperiodic_duality(capsys):
    t0 = time.monotonic()
    ks = 2.0 * np.pi * np.arange(64) / 64
    worst = 0.0
    details = []
    for p, q in ((1, 3), (2, 5)):
        flux = RationalFlux(p, q)
        pieces = []
        for i in range(64):
            theta = i / 64
            for k in ks:
                pieces.append(np.linalg.eigvalsh(harper_fiber(flux, theta, k)))
        union = np.sort(np.concatenate(pieces))
        lattice = spectrum_union(hofstadter_family(flux), 64)
        dist = hausdorff(union, lattice)
        worst = max(worst, dist)
        details.append(f"{p}/{q}: {dist:.1e}")
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-2 and elapsed < 30.0
    report(
        capsys,
        5,
        ok,
        "1D cosine-model union vs 2D lattice spectrum: "
        + ", ".join(details)
        + f" (tol 1e-2), {elapsed:.2f} s",
    )
    assert worst <= 1e-2
    assert elapsed < 30.0


def test_acceptance_06_chern_integers(capsys):
    t0 = time.monotonic()
    cherns = chern_numbers(hofstadter_family(RationalFlux(1, 3)), grid=30)
    code = main(["chern", "--flux", "1/2", "--kgrid", "32"])
    elapsed = time.monotonic() - t0
    ok = cherns == [1, -2, 1] and sum(cherns) == 0 and code == 4 and elapsed < 10.0
    report(
        capsys,
        6,
        ok,
        f"flux 1/3 numbers {tuple(cherns)} (integer snap within 0.01, sum 0); "
        f"flux 1/2 exits {code} on the band touching, {elapsed:.2f} s",
    )
    assert cherns == [1, -2, 1]
    assert sum(cherns) == 0
    assert code == 4
    assert elapsed < 10.0


def test_acceptance_07_free_continuum_levels(capsys):
    basis = torus_basis(10.0, 6, 4)
    n_flux = basis.n_flux
    ham = continuum_hamiltonian(basis, FourierPotential.cosine_xy(0.0))
    w = np.linalg.eigvalsh(ham.matrix)
    expected = np.repeat(basis.level_energies(), n_flux)
    rel = float(np.max(np.abs(w - expected)) / np.max(np.abs(expected)))
    ok = rel <= 1e-10
    report(
        capsys,
        7,
        ok,
        f"V = 0 spectrum matches the equally spaced ladder with "
        f"multiplicity {n_flux}: relative error {rel:.1e} (tol 1e-10)",
    )
    assert rel <= 1e-10


def test_acceptance_08_strong_field_recovery(tmp_path, capsys):
    code, elapsed, out = run_cli(
        ["lll-compare", "--B", "10,20,40"], tmp_path, "lll.csv"
    )
    _, cols, rows = read_table(out)
    distances = [float(r[cols.index("distance")]) for r in rows]
    decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    ok = code == 0 and decreasing and elapsed < 120.0
    report(
        capsys,
        8,
        ok,
        "lowest-cluster vs projected-model distances "
        + ", ".join(f"{d:.3e}" for d in distances)
        + f" strictly decreasing, {elapsed:.1f} s",
    )
    assert code == 0
    assert decreasing
    assert elapsed < 120.0


def test_acceptance_09_effective_dynamics_defect(tmp_path, capsys):
    code, elapsed, out = run_cli(
        ["dynamics-defect", "--B", "10,20,40"], tmp_path, "defect.csv"
    )
    _, cols, rows = read_table(out)
    zeros = [float(r[cols.index("defect_zero")]) for r in rows]
    maxima = [float(r[cols.index("max_defect")]) for r in rows]
    slopes = [float(r[cols.index("slope")]) for r in rows]
    decreasing = all(b < a for a, b in zip(slopes, slopes[1:]))
    ok = (
        code == 0
        and max(zeros) < 1e-10
        and decreasing
        and max(maxima) <= 2.0
        and elapsed < 180.0
    )
    report(
        capsys,
        9,
        ok,
        f"d(0) <= {max(zeros):.1e}, slopes "
        + ", ".join(f"{s:.3e}" for s in slopes)
        + f" strictly decreasing, max d(t) = {max(maxima):.3f} <= 2, "
        f"{elapsed:.1f} s",
    )
    assert code == 0
    assert max(zeros) < 1e-10
    assert decreasing
    assert max(maxima) <= 2.0
    assert elapsed < 180.0


def test_acceptance_10_disorder_gap_fill(capsys):
    t0 = time.monotonic()
    flux = RationalFlux(1, 3)
    clean = symmetric_gauge_box(flux.value / 2.0, 30, boundary="magnetic-periodic")
    clean_vals = eigenvalues_hermitian(clean.matrix)
    reference = spectrum_union(hofstadter_family(flux), 200)
    clean_bands = band_intervals(reference, 0.05)
    width, bins, nseeds = 0.02, 200, 20
    pad = 8.0 * width

    def fill_at(strength):
        bounds = (
            float(clean_vals[0]) - pad - strength,
            float(clean_vals[-1]) + pad + strength,
        )

        def builder(seed):
            noise = anderson_realization(30, "uniform", strength, seed)
            return eigenvalues_hermitian(add_onsite_disorder(clean, noise).matrix)

        stats = ensemble_dos(
            builder, nseeds, 0, width=width, bins=bins, bounds=bounds
        )
        return gap_fill_fraction(clean_bands, stats.histogram), stats

    fill_clean, _ = fill_at(0.0)
    fills = []
    kept = None
    for strength in (0.5, 1.0, 2.0):
        fill, stats = fill_at(strength)
        fills.append(fill)
        if strength == 1.0:
            kept = stats
    fill_again, stats_again = fill_at(1.0)
    elapsed = time.monotonic() - t0
    monotone = fills[0] <= fills[1] <= fills[2]
    reproducible = fill_again == fills[1] and np.array_equal(
        kept.histogram.density, stats_again.histogram.density
    )
    ok = fill_clean < 0.01 and monotone and reproducible and elapsed < 120.0
    report(
        capsys,
        10,
        ok,
        f"gap fill at W = 0 is {fill_clean:.4f} (< 0.01); over W = 0.5, 1, 2: "
        + ", ".join(f"{f:.4f}" for f in fills)
        + f" nondecreasing; rerun bit-identical; {elapsed:.1f} s",
    )
    assert fill_clean < 0.01
    assert monotone
    assert reproducible
    assert elapsed < 120.0


def test_acceptance_11_butterfly_regression(tmp_path, capsys):
    args = ["butterfly", "--qmax", "20", "--kgrid", "64"]
    code1, elapsed, first = run_cli(args, tmp_path, "b1.csv")
    code2, _, second = run_cli(args, tmp_path, "b2.csv")
    stable = first.read_bytes() == second.read_bytes()
    _, cols, rows = read_table(first)
    table = {
        (int(r[0]), int(r[1]), int(r[2])): (float(r[3]), float(r[4]))
        for r in rows
    }
    mirror_dev = 0.0
    negate_dev = 0.0
    for (p, q, band), (lo, hi) in table.items():
        m_lo, m_hi = table[(q - p, q, band)]
        mirror_dev = max(mirror_dev, abs(lo - m_lo), abs(hi - m_hi))
        n_lo, n_hi = table[(p, q, q - 1 - band)]
        negate_dev = max(negate_dev, abs(lo + n_hi), abs(hi + n_lo))
    ok = (
        code1 == 0
        and code2 == 0
        and stable
        and mirror_dev <= 5e-3
        and negate_dev <= 5e-3
        and elapsed < 60.0
    )
    report(
        capsys,
        11,
        ok,
        f"{len(rows)} band rows in {elapsed:.1f} s; flux-mirror deviation "
        f"{mirror_dev:.1e}, energy-flip deviation {negate_dev:.1e} "
        f"(tol 5e-3); rerun bit-identical: {stable}",
    )
    assert code1 == 0 and code2 == 0
    assert stable
    assert mirror_dev <= 5e-3
    assert negate_dev <= 5e-3
    assert elapsed < 60.0
