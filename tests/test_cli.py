"""End-to-end tests of the command line interface."""

import json
import math
import os
import stat

import numpy as np
import pytest

from fluxlab import (
    ConfigError,
    DefectRow,
    RationalFlux,
    StrongFieldRow,
    band_intervals,
    cli,
    continuum,
    exact_bands,
    hausdorff,
    spectra,
    symmetric_gauge_box,
)
from fluxlab.cli import _field_value, build_parser, main, parse_config


def test_defaults_resolved():
    args = build_parser().parse_args(["butterfly"])
    cfg = parse_config(args)
    assert cfg.command == "butterfly"
    assert cfg.params["qmax"] == 20
    assert cfg.params["kgrid"] == 64
    assert cfg.params["format"] == "csv"
    assert cfg.params["out"] == ""


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qmax": 4, "bogus": 1}))
    args = build_parser().parse_args(["butterfly", "--config", str(path)])
    with pytest.raises(ConfigError):
        parse_config(args)
    assert main(["butterfly", "--config", str(path)]) == 2


def test_config_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["butterfly", "--config", str(path)]) == 2
    path.write_text("{not json")
    assert main(["butterfly", "--config", str(path)]) == 2


def test_flag_overrides_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kgrid": 8, "qmax": 3}))
    args = build_parser().parse_args(
        ["butterfly", "--config", str(path), "--qmax", "2"]
    )
    cfg = parse_config(args)
    assert cfg.params["qmax"] == 2
    assert cfg.params["kgrid"] == 8


def test_unreduced_flux_exits_2(capsys):
    assert main(["fiber-spectrum", "--flux", "3/6", "--kgrid", "8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_2(capsys):
    assert main(["fiber-spectrum"]) == 2
    err = capsys.readouterr().err
    assert "--flux" in err


def test_bad_format_exits_2():
    assert main(["chern", "--format", "toml"]) == 2


def test_field_value_caster():
    assert _field_value("1/8") == 0.125
    assert _field_value("0.25") == 0.25
    assert _field_value(0.5) == 0.5
    with pytest.raises(ValueError):
        _field_value("one eighth")
    # a config file's "1/0" takes the same caster as the flag
    with pytest.raises(ValueError, match="denominator must be nonzero"):
        _field_value("1/0")


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_chern_artifact_bytes_are_stable(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["chern", "--flux", "1/3", "--kgrid", "30", "--out", str(first)]) == 0
    assert main(["chern", "--flux", "1/3", "--kgrid", "30", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith("# fluxlab ")
    assert "# command: chern" in text
    assert "band,chern" in text
    sidecar = json.loads((tmp_path / "a.meta.json").read_text())
    assert sidecar["command"] == "chern"
    assert sidecar["ok"] is True
    assert sidecar["rows"] == 3
    assert sidecar["wall_time_s"] >= 0.0
    assert sidecar["config"]["kgrid"] == 30


@pytest.mark.parametrize("flux", ["0/1", "1/1"])
def test_chern_single_band_is_zero(flux, capsys):
    assert main(["chern", "--flux", flux]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["band,chern", "0,0"]


def test_chern_degenerate_bands_exit_4(capsys):
    assert main(["chern", "--flux", "1/2", "--kgrid", "32"]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kgrid", ["8", "30"])
@pytest.mark.parametrize("flux", ["1/2", "1/6"])
def test_chern_even_q_exits_4_at_every_grid(flux, kgrid, capsys):
    # the two central bands touch at energy 0 whether or not the grid hits
    # the touching points
    assert main(["chern", "--flux", flux, "--kgrid", kgrid]) == 4
    assert "touch at energy 0" in capsys.readouterr().err


def test_chern_off_the_tknn_integers_exits_3(monkeypatch, capsys):
    assert main(["chern", "--flux", "1/3"]) == 0
    # a wrong vector that still sums to zero passes the sum gate alone
    monkeypatch.setattr(cli, "chern_numbers", lambda *args, **kwargs: [2, -4, 2])
    capsys.readouterr()
    assert main(["chern", "--flux", "1/3"]) == 3
    err = capsys.readouterr().err
    assert "  abs_chern_sum = 0 (limit 0) -> pass" in err
    assert "  bands_off_tknn = 3 (limit 0) -> FAIL" in err


def _first_eigenvalue_nan(monkeypatch):
    """Make the first eigenvalue of every np.linalg.eigvalsh call NaN."""
    eigvalsh = np.linalg.eigvalsh

    def one_nan(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        w.flat[0] = np.nan
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", one_nan)


@pytest.mark.parametrize(
    "argv",
    [
        ["butterfly", "--qmax", "4", "--kgrid", "8"],
        ["fiber-spectrum", "--flux", "2/5", "--kgrid", "16"],
        ["harper-spectrum", "--flux", "1/3", "--thetagrid", "8", "--kgrid", "8"],
        ["peierls-check", "--flux", "1/3", "--kgrid", "8"],
        ["gauge-check", "--B", "1/8", "--L", "8"],
        # a NaN that reached dos as a saturated erf would empty the histogram
        # and exit 2, a configuration error
        ["disorder-dos", "--L", "6", "--nseeds", "2", "--kgrid", "16", "--bins", "40"],
    ],
)
def test_nan_eigenvalue_fails_every_lattice_command(argv, monkeypatch, capsys):
    assert main(argv) == 0
    _first_eigenvalue_nan(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "-> FAIL" in err and "Traceback" not in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_json_meta_writes_a_nan_as_a_string(monkeypatch, capsys):
    _first_eigenvalue_nan(monkeypatch)
    argv = ["fiber-spectrum", "--flux", "2/5", "--kgrid", "16", "--format", "json"]
    assert main(argv) == 3
    meta = _strict_json(capsys.readouterr().out)["meta"]
    assert meta["e_max"] == "nan"


def test_json_meta_keeps_finite_values_and_list_shapes():
    meta = {"bands": [[0.0, 1.5], [2.0, math.nan]], "times": [0.5, -math.inf], "n": 3}
    cfg = cli.RunConfig("gauge-check", {"format": "json"})
    artifact = cli.RunArtifact(columns=["x"], rows=[(1.0,)], meta=meta, summary="")
    doc = _strict_json(cli.render_json(artifact, cfg))
    assert doc["meta"] == {
        "bands": [[0.0, 1.5], [2.0, "nan"]],
        "times": [0.5, "-inf"],
        "n": 3,
    }
    # a finite document keeps its bytes
    artifact.meta = {"bands": [[0.0, 1.5], [2.0, 3.0]], "times": [0.5, 1.0], "n": 3}
    doc = {"version": cli.__version__, "command": "gauge-check",
           "config": {"format": "json"}, "meta": artifact.meta,
           "columns": ["x"], "rows": [[1.0]]}
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert cli.render_json(artifact, cfg) == expected


def test_gauge_check_impossible_tolerance_exits_3(capsys):
    assert main(["gauge-check", "--B", "1/8", "--L", "8", "--tol", "1e-20"]) == 3
    err = capsys.readouterr().err
    assert "FAIL" in err


def test_out_into_missing_directory_exits_2(tmp_path, forbid_solves, capsys):
    forbid_solves()
    target = tmp_path / "missing" / "x.csv"
    code = main(["chern", "--flux", "1/3", "--kgrid", "12", "--out", str(target)])
    assert code == 2
    assert "error: --out:" in capsys.readouterr().err
    assert not target.exists()
    assert not target.parent.exists()


def test_out_under_a_regular_file_exits_2(tmp_path, forbid_solves, capsys):
    forbid_solves()
    parent = tmp_path / "file"
    parent.write_text("kept\n")
    argv = ["fiber-spectrum", "--flux", "1/3", "--out", str(parent / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: --out: {str(parent)!r} is not a directory" in err
    assert parent.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_written_files_take_the_mode_open_would_leave(tmp_path):
    # under umask 022 a new table and its sidecar are 0o644, as
    # open(path, "w") leaves a new file, and a rerun onto a 0o640 table
    # keeps that table's mode
    out = tmp_path / "c.csv"
    argv = ["chern", "--flux", "1/3", "--kgrid", "12", "--out", str(out)]
    umask = os.umask(0o022)
    try:
        assert main(argv) == 0
        for path in (out, tmp_path / "c.meta.json"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path.name
        os.chmod(out, 0o640)
        assert main(argv) == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    finally:
        os.umask(umask)


@pytest.mark.parametrize("make", [os.mkfifo, os.mkdir], ids=["fifo", "directory"])
@pytest.mark.parametrize("target", ["x.csv", "x.meta.json"], ids=["table", "sidecar"])
def test_out_onto_a_special_file_exits_2_before_any_solve(
    make, target, tmp_path, forbid_solves, capsys
):
    forbid_solves()
    special = tmp_path / target
    make(special)
    kind = os.stat(special).st_mode
    out = tmp_path / "x.csv"
    assert main(["chern", "--flux", "1/3", "--kgrid", "12", "--out", str(out)]) == 2
    assert "error: --out:" in capsys.readouterr().err
    assert os.stat(special).st_mode == kind
    assert sorted(os.listdir(tmp_path)) == [target]


def test_butterfly_small_run_stdout(capsys):
    assert main(["butterfly", "--qmax", "2", "--kgrid", "8"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    header_idx = lines.index("p,q,band,e_min,e_max,q25,q50,q75")
    data = [
        line
        for line in lines[header_idx + 1 :]
        if line and not line.startswith("butterfly:")
    ]
    # fluxes 0/1 and 1/1 carry one band each, 1/2 carries two; rows are
    # ordered by flux value, so 1/1 lands last
    assert len(data) == 4
    assert data[0].startswith("0,1,0,")
    assert data[1].startswith("1,2,0,")
    assert data[2].startswith("1,2,1,")
    assert data[3].startswith("1,1,0,")
    assert "# n_flux_values: 3" in lines
    assert any(
        line.startswith("butterfly: 3 flux values, 4 band rows")
        for line in captured.err.splitlines()
    )


def test_json_to_stdout_parses(capsys):
    assert main(["butterfly", "--qmax", "2", "--kgrid", "8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "butterfly"
    assert len(doc["rows"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["lll-compare", "--B", "inf"],
        ["lll-compare", "--B", "10,nan"],
        ["peierls-check", "--tol", "nan"],
        ["dynamics-defect", "--times", "nan"],
        ["disorder-dos", "--W", "nan"],
        ["gauge-check", "--B", "inf"],
        ["gauge-check", "--B", "1e400"],
        ["continuum-spectrum", "--B=-inf"],
    ],
)
def test_non_finite_values_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: bad value" in err
    assert "Traceback" not in err


def test_negative_seed_is_valid():
    # every seed is a valid (seed, counter) stream key, as for disorder-dos
    argv = ["dynamics-defect", "--B", "5,10", "--ncells", "2", "--nlevels", "3"]
    assert main(argv + ["--times", "0.5,1", "--seed", "-1"]) == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["lll-compare", "--B", ","], "--B"),
        (["dynamics-defect", "--B", ","], "--B"),
        (["dynamics-defect", "--times", " , "], "--times"),
        (["peierls-check", "--flux", ","], "--flux"),
    ],
)
def test_empty_list_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: bad value for {flag}:" in captured.err
    assert "at least one value" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["peierls-check", "--kgrid", "0"], "--kgrid"),
        (["harper-spectrum", "--flux", "1/3", "--kgrid", "0"], "--kgrid"),
        (["harper-spectrum", "--flux", "1/3", "--thetagrid", "-2"], "--thetagrid"),
        (["butterfly", "--kgrid", "0"], "--kgrid"),
        (["butterfly", "--qmax", "0"], "--qmax"),
        (["gauge-check", "--L", "-1"], "--L"),
        (["gauge-check", "--L", "0"], "--L"),
        (["disorder-dos", "--L", "0"], "--L"),
        (["disorder-dos", "--L", "6", "--nseeds", "0"], "--nseeds"),
        (["disorder-dos", "--L", "6", "--bins", "-1"], "--bins"),
        (["continuum-spectrum", "--B", "10", "--ncells", "0"], "--ncells"),
        (["continuum-spectrum", "--B", "10", "--nlevels", "0"], "--nlevels"),
        (["lll-compare", "--ncells", "0"], "--ncells"),
        (["lll-compare", "--nlevels", "0"], "--nlevels"),
        (["dynamics-defect", "--ncells", "-3"], "--ncells"),
        (["dynamics-defect", "--nlevels", "0"], "--nlevels"),
        (["fiber-spectrum", "--flux", "1/3", "--kgrid2", "-1"], "--kgrid2"),
        (["peierls-check", "--kgrid", "4", "--tol", "-1e-300"], "--tol"),
        (["peierls-check", "--kgrid", "4", "--tol", "-1"], "--tol"),
        (["gauge-check", "--tol", "-1"], "--tol"),
        (["gauge-check", "--gap-tol", "-1e-300"], "--gap-tol"),
        (["disorder-dos", "--L", "6", "--gap-tol", "-1e-300"], "--gap-tol"),
        (["gauge-check", "--gap-tol", "-1"], "--gap-tol"),
        (["disorder-dos", "--L", "6", "--gap-tol", "-1"], "--gap-tol"),
    ],
)
def test_nonpositive_grid_exits_2(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: bad value for {flag}:" in err
    least = 0 if flag in ("--kgrid2", "--tol", "--gap-tol") else 1
    assert f"must be >= {least}" in err


def test_overflowing_disorder_draw_exits_2_before_its_solve(monkeypatch, capsys):
    # a gaussian draw near the float limit overflows to inf: a configuration
    # error named like a non-finite flux count, not LAPACK's "did not converge"
    eigvalsh = np.linalg.eigvalsh

    def finite_only(a, *args, **kwargs):
        assert np.all(np.isfinite(a)), "a non-finite operator reached eigvalsh"
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    # 8.9e307 keeps the DOS range finite; seed 0 draws a |normal| of 2.15
    argv = ["disorder-dos", "--L", "6", "--nseeds", "2", "--W", "8.9e307",
            "--dist", "gaussian"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: disorder strength 8.9e+307 gives non-finite gaussian")
    assert "Traceback" not in err and "did not converge" not in err


@pytest.mark.parametrize(
    "argv, flag, reason",
    [
        (["disorder-dos", "--width", "-1"], "--width", "must be > 0"),
        (["disorder-dos", "--dist", "foo"], "--dist", "must be uniform or gaussian"),
        (["dynamics-defect", "--times", "0"], "--times", "must hold a nonzero time"),
        (["chern", "--kgrid", "1"], "--kgrid", "must be >= 2"),
        (["disorder-dos", "--W", "-1"], "--W", "must be >= 0"),
        (["continuum-spectrum", "--B", "1/0"], "--B", "denominator must be nonzero"),
        (["gauge-check", "--B", "1/0"], "--B", "denominator must be nonzero"),
        # every flux string is read at parse time, the second of a list too
        (["peierls-check", "--flux", "1/3,2/6"], "--flux", "2/6 is not reduced"),
        (["fiber-spectrum", "--flux", "0.4"], "--flux", "must look like 'p/q'"),
        (["harper-spectrum", "--flux", "1/0"], "--flux", "denominator must be >= 1"),
        (["chern", "--flux", "a/b"], "--flux", "must be a pair of integers"),
        (["disorder-dos", "--flux", "3/6"], "--flux", "3/6 is not reduced"),
        (["dynamics-defect", "--times=-1"], "--times", "must not hold a negative time"),
        (["dynamics-defect", "--times", "1e155"], "--times",
         "sum of squared times must be finite"),
        # the sweeps' decreasing gates read the rows in the order given, and
        # 10 and 10.1 both snap to 13 flux quanta on the 2 x 2 torus
        (["lll-compare", "--B", "40,20,10", "--ncells", "2", "--nlevels", "3"],
         "--B", "not strictly increasing"),
        (["dynamics-defect", "--B", "10,10.1", "--ncells", "2", "--nlevels", "3"],
         "--B", "not strictly increasing"),
    ],
)
def test_bad_value_exits_2_before_any_eigensolve(
    argv, flag, reason, forbid_solves, capsys
):
    forbid_solves()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: bad value for {flag}:" in err and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ["disorder-dos", "--flux", "0/1", "--L", "30", "--nseeds", "20"],
        ["disorder-dos", "--flux", "1/3", "--gap-tol", "10"],
        # a coarse grid leaves holes in the one band; they are not gaps
        ["disorder-dos", "--flux", "0/1", "--kgrid", "4"],
        ["disorder-dos", "--flux", "1/2", "--kgrid", "4"],
        # 2 (1/4) 7^2 is not an integer, but the missing gap is named first
        ["disorder-dos", "--flux", "1/2", "--L", "7"],
    ],
)
def test_gapless_clean_bands_exit_2_before_any_box_solve(argv, forbid_solves, capsys):
    forbid_solves(2)  # the exact_bands corners
    assert main(argv) == 2
    assert "has no gap to fill" in capsys.readouterr().err


def test_non_hermitian_clean_box_exits_3(monkeypatch, capsys):
    # the clean box is checked once; the disorder adds a real diagonal, which
    # leaves M - M^dag as it is, so no realization is checked again
    real = cli.symmetric_gauge_box

    def skewed(*args, **kwargs):
        box = real(*args, **kwargs)
        box[0, 1] += 1e-6
        return box

    monkeypatch.setattr(cli, "symmetric_gauge_box", skewed)
    assert main(["disorder-dos", "--L", "6", "--nseeds", "2", "--kgrid", "16"]) == 3
    assert "not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["disorder-dos", "--flux", "1/3", "--L", "30", "--nseeds", "2"],
        ["gauge-check", "--B", "1/8", "--L", "30"],
    ],
)
def test_dense_box_is_held_once(argv, traced_peak, capsys):
    # the 900 x 900 complex box takes 16 L^4 bytes. It is built, checked and
    # given its disorder in place; eigvalsh's own copy is not traced. A
    # second d x d array anywhere (an adjoint, a skew, a working copy)
    # would break the bound
    codes = []
    peak = traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert peak < 2 * 16 * 30**4, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "argv, gate",
    [
        (["continuum-spectrum", "--B", "10", "--amplitude", "1e308"], "energy"),
        # the overflowing operator fails its eigenvalue check before any gate
        (["lll-compare", "--B", "10", "--amplitude", "1e308"], None),
        (
            ["dynamics-defect", "--B", "10", "--ncells", "2", "--nlevels", "3",
             "--amplitude", "1e308"],
            None,
        ),
        # a nan cluster gap is a numerical failure, not an unseparated cluster
        (["lll-compare", "--B", "7", "--ncells", "2", "--nlevels", "6",
          "--amplitude", "1.1e308"], None),
    ],
)
# the suite raises a numpy RuntimeWarning as an error, which would escape main
def test_non_finite_result_exits_3(argv, gate, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    if gate is None:
        assert err.startswith("error: ") and "non-finite" in err
    else:
        assert f"  {gate}_not_finite = " in err
        assert err.rstrip().endswith("-> FAIL")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [["--W", "1e308"], ["--width", "1e308"], ["--W", "1e308", "--dist", "gaussian"]],
)
def test_overflowing_dos_range_exits_2_before_any_realization(
    extra, monkeypatch, capsys
):
    # the DOS range clean +- (8 width + W) is wider than the float limit
    def no_realization(*args, **kwargs):
        raise AssertionError("a realization was drawn for an overflowing range")

    monkeypatch.setattr(cli, "anderson_realization", no_realization)
    argv = ["disorder-dos", "--flux", "1/3", "--L", "6", "--nseeds", "2", *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --W ") and "--width" in err
    assert "Traceback" not in err


def test_overflowing_box_flux_exits_2(capsys):
    assert main(["gauge-check", "--B", "1e308", "--L", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: total flux 2*B*L^2 = inf is not finite")
    assert "Traceback" not in err


def test_unquantized_disorder_box_exits_4_before_the_sweep(forbid_solves, capsys):
    # 2 (1/6) 7^2 is not an integer: the box is built before the fiber sweep
    forbid_solves(2)  # the exact_bands corners
    assert main(["disorder-dos", "--flux", "1/3", "--L", "7"]) == 4
    assert "needs integer total flux" in capsys.readouterr().err


def test_gauge_check_closes_the_box_before_its_solve(forbid_solves, capsys):
    forbid_solves()
    # 2 (0.1) 3^2 = 1.8 is not an integer
    assert main(["gauge-check", "--B", "0.1", "--L", "3"]) == 4
    assert "needs integer total flux" in capsys.readouterr().err


def test_gauge_check_reads_its_fiber_flux_from_the_box_closure(forbid_solves, capsys):
    # the closure 2B L^2 = 1 fixes the fiber flux 2B = 1/256; its q divides
    # L^2, so the corner fibers are no larger than the box
    forbid_solves(3)  # the box and the 2 exact_bands corners
    assert main(["gauge-check", "--B", "1/512", "--L", "16"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    row = dict(zip(header.split(","), row.split(",")))
    assert (row["fiber_p"], row["fiber_q"]) == ("1", "256")
    assert float(row["hausdorff"]) < 1e-12


def _gauge_check_row(B, capsys):
    assert main(["gauge-check", "--B", B, "--L", "8"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("B", ["1e300", "1e17"])
def test_huge_field_box_is_the_zero_field_box(B, capsys):
    # a float this large is an integer, so B mod 1 is 0 and the box flux is 0/1
    row = _gauge_check_row(B, capsys)
    assert (row["fiber_p"], row["fiber_q"]) == ("0", "1")
    assert float(row["hausdorff"]) < 1e-12


def test_large_field_keeps_its_fractional_part(capsys):
    big = _gauge_check_row("10000000000.125", capsys)
    small = _gauge_check_row("0.125", capsys)
    for column in ("fiber_p", "fiber_q", "hausdorff", "containment", "box_bands"):
        assert big[column] == small[column]

def test_overflowing_flux_count_exits_2(capsys):
    assert main(["continuum-spectrum", "--B", "1e308", "--ncells", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite flux-quantum count" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, flag",
    [
        ({"nlevels": 2.7}, "--nlevels"),
        ({"nlevels": True}, "--nlevels"),
        ({"ncells": 2.0}, "--ncells"),
        ({"amplitude": True}, "--amplitude"),
    ],
)
def test_config_value_parses_as_its_flag_string(config, flag, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["continuum-spectrum", "--B", "10", "--config", str(path)]) == 2
    assert f"error: bad value for {flag}:" in capsys.readouterr().err


def test_single_level_infinite_cluster_gap_exits_0(capsys):
    # with only the lowest level kept the cluster gap is a legitimate inf
    assert main(["lll-compare", "--B", "10", "--nlevels", "1"]) == 0
    out, err = capsys.readouterr()
    header, row = [line for line in out.splitlines() if not line.startswith("#")]
    assert dict(zip(header.split(","), row.split(",")))["cluster_gap"] == "inf"
    assert "distance_or_coupling_not_finite = 0 (limit 0) -> pass" in err


def _csv_table(capsys):
    """The `# key: value` meta and the header and data lines of the CSV
    table on stdout."""
    lines = capsys.readouterr().out.splitlines()
    pairs = [line[2:].split(": ", 1) for line in lines if line.startswith("# ")]
    meta = dict(pair for pair in pairs if len(pair) == 2)
    return meta, [line for line in lines if not line.startswith("#")]


_REDUCED_FLUXES = [
    RationalFlux(p, q)
    for q in range(1, 9)
    for p in range(-q, q + 1)
    if math.gcd(p, q) == 1
]


@pytest.mark.parametrize("kgrid", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("command", ["fiber-spectrum", "harper-spectrum"])
def test_band_table_is_exact_bands(command, kgrid, capsys):
    grids = ["--kgrid", str(kgrid)]
    if command == "harper-spectrum":
        grids += ["--thetagrid", str(kgrid)]
    for flux in _REDUCED_FLUXES:
        assert main([command, f"--flux={flux.p}/{flux.q}", *grids]) == 0
        _, lines = _csv_table(capsys)
        rows = [
            f"{band},{lo:.12g},{hi:.12g}"
            for band, (lo, hi) in enumerate(exact_bands(flux).tolist())
        ]
        assert lines == ["band,e_lo,e_hi", *rows], (command, flux, kgrid)


@pytest.mark.parametrize(
    "argv, n_rows",
    [
        # a merged k-grid sample printed 99 bands at the default --kgrid 200
        # (and 1 at --kgrid 1, which test_band_table_is_exact_bands runs)
        (["fiber-spectrum", "--flux", "1/3"], 3),
        # and a third, point-sized band at the touching point 0
        (["harper-spectrum", "--flux", "1/2"], 2),
    ],
)
def test_band_table_has_one_row_per_exact_band(argv, n_rows, capsys):
    assert main(argv) == 0
    _, lines = _csv_table(capsys)
    assert len(lines) == 1 + n_rows


def test_sample_hausdorff_falls_with_the_grid(capsys):
    measured = []
    for kgrid in ("8", "64", "200"):
        assert main(["fiber-spectrum", "--flux", "1/3", "--kgrid", kgrid]) == 0
        meta, _ = _csv_table(capsys)
        measured.append(float(meta["sample_hausdorff"]))
    assert measured[0] > measured[1] > measured[2]
    np.testing.assert_allclose(measured, [0.0756, 0.00625, 0.000996], rtol=1e-2)


def test_deleted_band_flags_exit_2(tmp_path, forbid_solves, capsys):
    forbid_solves()
    for argv, key in [
        (["fiber-spectrum", "--flux", "1/3"], "gap_tol"),
        (["harper-spectrum", "--flux", "1/3"], "gap_tol"),
        (["harper-spectrum", "--flux", "1/3"], "tol"),
        (["gauge-check", "--B", "1/8"], "kgrid"),
    ]:
        with pytest.raises(SystemExit) as info:
            main([*argv, f"--{key.replace('_', '-')}", "0.1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: 0.1}))
        assert main([*argv, "--config", str(path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_gauge_check_solves_the_box_and_two_corners(forbid_solves, capsys):
    forbid_solves(3)
    assert main(["gauge-check", "--B", "1/8"]) == 0


def test_gauge_check_measures_the_box_against_the_exact_bands(capsys):
    # at 2B = 19/64 every point of a 64-point grid has cos(64 k) = 1, so a
    # --kgrid 64 sample held only the k = 0 fiber and gave 5.1e-15
    row = _gauge_check_row("19/128", capsys)
    box = np.linalg.eigvalsh(symmetric_gauge_box(19 / 128, 8))
    fibers = band_intervals(exact_bands(RationalFlux(19, 64)), 1.0)
    expected = hausdorff(band_intervals(box, 1.0), fibers)
    assert abs(expected - 1.04e-3) < 1e-5
    assert row["hausdorff"] == f"{expected:.12g}"


def test_harper_spectrum_fails_outside_narrowed_bands(monkeypatch, capsys):
    argv = ["harper-spectrum", "--flux", "2/5", "--thetagrid", "8", "--kgrid", "8"]
    assert main(argv) == 0
    exact = cli.exact_bands
    monkeypatch.setattr(
        cli, "exact_bands", lambda flux: exact(flux) + np.array([1e-3, -1e-3])
    )
    capsys.readouterr()
    assert main(argv) == 3
    assert "outside_exact_bands" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["butterfly", "--qmax", "4", "--kgrid", "8"],
        ["fiber-spectrum", "--flux", "2/5", "--kgrid", "16"],
    ],
)
def test_shifted_fiber_eigenvalues_fail_the_exact_band_gate(argv, monkeypatch, capsys):
    assert main(argv) == 0
    assert "  outside_exact_bands = " in capsys.readouterr().err
    eigvalsh = np.linalg.eigvalsh
    solve_with_corners = spectra._solve_with_corners

    def unshifted_bands(*args):
        # exact_bands and band_quantiles take their bands from this helper
        solved = solve_with_corners(*args)[0]
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", eigvalsh)
            return solved, solve_with_corners(*args)[1]

    # every eigenvalue moves up by 1e-3, the reference bands stay put
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *args, **kw: eigvalsh(a, *args, **kw) + 1e-3
    )
    monkeypatch.setattr(spectra, "_solve_with_corners", unshifted_bands)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "  outside_exact_bands = 0.001" in err and err.rstrip().endswith("FAIL")


def test_overflowing_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"qmax": Infinity}')
    assert main(["butterfly", "--config", str(path)]) == 2
    assert "error: bad value" in capsys.readouterr().err


def test_linalg_error_exits_3(monkeypatch, capsys):
    def no_convergence(cfg):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "run_command", no_convergence)
    assert main(["chern"]) == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["continuum-spectrum", "--B", "5"], ["lll-compare", "--B", "5"],
     ["dynamics-defect", "--B", "5"]],
)
def test_memory_error_exits_2(argv, monkeypatch, capsys):
    # an operator too large for memory is a configuration problem: the
    # message reaches stderr, with no traceback
    def oversize(*args, **kwargs):
        raise MemoryError("Unable to allocate 755. GiB for an array")

    monkeypatch.setattr(continuum, "guiding_bands", oversize)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: Unable to allocate 755. GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
def test_form_factor_at_400_levels_exits_0(command, capsys):
    # B = 0.2 on 4 cells is one flux quantum on 400 levels: with |kappa| ~ 7
    # a bare kappa^d would overflow for d > 364, but every form-factor entry
    # is a displacement-operator element of modulus <= 1, and so is each
    # value the recurrence carries
    assert main([command, "--B", "0.2", "--nlevels", "400"]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    _, *rows = [line for line in out.splitlines() if not line.startswith("#")]
    cells = [cell for row in rows for cell in row.split(",")]
    assert rows and all(
        cell in ("true", "false") or math.isfinite(float(cell)) for cell in cells
    )


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
def test_cross_coset_entry_exits_3(command, monkeypatch, capsys):
    # B = 5 on 2 cells: n_flux 6 in g = 2 cosets, and moving row 0's entry
    # of a guiding translation by one column puts it in the other coset.
    # The zeros between cosets are structural, so one such entry is a leak
    real = continuum.weyl_translation

    def leaky(flux, n, m):
        cols, phase = real(flux, n, m)
        cols[0] = (cols[0] + 1) % flux.q
        return cols, phase

    argv = [command, "--B", "5", "--ncells", "2", "--nlevels", "3"]
    assert main(argv) == 0
    monkeypatch.setattr(continuum, "weyl_translation", leaky)
    capsys.readouterr()
    assert main(argv) == 3
    assert "nonzero entries between its 2 guiding-centre cosets" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv",
    [["chern", "--flux", "-1/3"], ["gauge-check", "--B", "-1/8", "--L", "8"],
     ["continuum-spectrum", "--B", "5", "--amplitude", "-1e-1"]],
)
def test_negative_value_as_separate_argument(argv, tmp_path):
    # `--flux -1/3` means `--flux=-1/3`, not a flag named -1/3
    pairs = zip(argv[1::2], argv[2::2])
    joined = argv[:1] + [f"{flag}={value}" for flag, value in pairs]
    tables = []
    for i, spelling in enumerate((argv, joined)):
        out = tmp_path / f"{i}.csv"
        assert main(spelling + ["--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    if argv[0] == "chern":
        assert tables[0].decode().splitlines()[-3:] == ["0,-1", "1,2", "2,-1"]


def test_json_artifact_parses(tmp_path):
    out = tmp_path / "chern.json"
    code = main(
        [
            "chern",
            "--flux",
            "1/3",
            "--kgrid",
            "30",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "chern"
    assert doc["columns"] == ["band", "chern"]
    assert doc["rows"] == [[0, 1], [1, -2], [2, 1]]
    assert doc["meta"]["sum"] == 0
    assert doc["config"]["kgrid"] == 30
    assert "version" in doc


def test_config_file_value_lands_in_artifact(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kgrid": 12}))
    out = tmp_path / "c.csv"
    assert main(["chern", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert '"kgrid":12' in text.splitlines()[2]
    assert "# kgrid: 12" in text


@pytest.mark.parametrize(
    "argv, code",
    [
        (["harper-spectrum", "--flux", "1/3", "--thetagrid", "8", "--kgrid", "8"], 0),
        (["peierls-check", "--flux", "1/3,2/5,3/7", "--kgrid", "8"], 0),
        (["gauge-check", "--B", "1/8", "--L", "8"], 0),
        (["gauge-check", "--B", "1/8", "--L", "8", "--tol", "1e-20"], 3),
        (["chern", "--flux", "1/3", "--kgrid", "12"], 0),
        (["lll-compare", "--B", "5,10,20", "--ncells", "2", "--nlevels", "3"], 0),
        (
            ["dynamics-defect", "--B", "5,10,20", "--ncells", "2", "--nlevels", "3",
             "--times", "0,0.5,1"],
            0,
        ),
        (["butterfly", "--qmax", "3", "--kgrid", "8"], 0),
        (["fiber-spectrum", "--flux", "2/5", "--kgrid", "16"], 0),
    ],
)
def test_sidecar_records_gates(argv, code, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == code
    sidecar = json.loads((tmp_path / "t.meta.json").read_text())
    gates = sidecar["gates"]
    assert gates
    for gate in gates:
        assert set(gate) == {"name", "value", "limit", "passed"}
        assert gate["passed"] == (gate["value"] <= gate["limit"])
    assert sidecar["ok"] == all(gate["passed"] for gate in gates)
    assert sidecar["ok"] == (code == 0)
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"{argv[0]}: ")
    assert len(err) == 1 + len(gates)
    for line, gate in zip(err[1:], gates):
        assert line.startswith(f"  {gate['name']} = ")
        assert line.endswith("pass" if gate["passed"] else "FAIL")


def test_sidecar_nan_gate_is_strict_json(monkeypatch, tmp_path):
    nan = float("nan")
    rows = [DefectRow(1.0, 1.0, 2, 0.1, nan, 0.5, 0.2, True)]
    monkeypatch.setattr(cli, "defect_scaling", lambda *args, **kwargs: rows)
    out = tmp_path / "d.csv"
    assert main(["dynamics-defect", "--out", str(out)]) == 3

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "d.meta.json").read_text()
    gates = {g["name"]: g for g in json.loads(text, parse_constant=reject)["gates"]}
    assert gates["defect_zero"]["value"] == "nan"
    assert gates["defect_zero"]["passed"] is False


def test_separation_gate_precedes_monotone_gate(monkeypatch, capsys):
    def row(distance, separated):
        return StrongFieldRow(
            field_requested=1.0,
            field=1.0,
            n_flux=2,
            cluster_gap=0.0,
            distance=distance,
            coupling_next_level=0.0,
            separated=separated,
        )

    rows = [row(0.1, True), row(0.2, True), row(float("nan"), False)]
    monkeypatch.setattr(cli, "strong_field_report", lambda *args, **kwargs: rows)
    assert main(["lll-compare"]) == 4
    err = capsys.readouterr().err
    assert "unseparated_rows = 1 (limit 0) -> FAIL" in err
    assert "distance_not_decreasing = 1 (limit 0) -> FAIL" in err
