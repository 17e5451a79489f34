"""End-to-end tests of the command line interface."""

import json

import numpy as np
import pytest

from fluxlab import (
    ConfigError,
    DefectRow,
    StrongFieldRow,
    cli,
    continuum,
    dynamics,
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


@pytest.mark.parametrize(
    "argv",
    [
        ["butterfly", "--qmax", "4", "--kgrid", "8"],
        ["fiber-spectrum", "--flux", "2/5", "--kgrid", "16"],
        ["harper-spectrum", "--flux", "1/3", "--thetagrid", "8", "--kgrid", "8"],
        ["peierls-check", "--flux", "1/3", "--kgrid", "8"],
        ["gauge-check", "--B", "1/8", "--L", "8", "--kgrid", "16"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_eigenvalue_fails_every_lattice_command(argv, monkeypatch, capsys):
    assert main(argv) == 0
    eigvalsh = np.linalg.eigvalsh

    def one_nan(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        w.flat[0] = np.nan
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", one_nan)
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "-> FAIL" in err and "Traceback" not in err


def test_gauge_check_impossible_tolerance_exits_3(capsys):
    code = main(
        ["gauge-check", "--B", "1/8", "--L", "8", "--kgrid", "16", "--tol", "1e-20"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "FAIL" in err


def test_out_into_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code = main(["chern", "--flux", "1/3", "--kgrid", "12", "--out", str(target)])
    assert code == 2
    assert not target.exists()
    assert not target.parent.exists()


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
        (["gauge-check", "--qmax", "0"], "--qmax"),
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
        (["harper-spectrum", "--flux", "1/3", "--tol", "-1"], "--tol"),
        (["peierls-check", "--kgrid", "4", "--tol", "-1"], "--tol"),
        (["gauge-check", "--tol", "-1"], "--tol"),
        (["fiber-spectrum", "--flux", "1/3", "--kgrid", "8", "--gap-tol", "-1"],
         "--gap-tol"),
        (["harper-spectrum", "--flux", "1/3", "--gap-tol", "-1"], "--gap-tol"),
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


@pytest.mark.parametrize(
    "argv, flag, reason",
    [
        (["disorder-dos", "--width", "-1"], "--width", "must be > 0"),
        (["disorder-dos", "--dist", "foo"], "--dist", "must be uniform or gaussian"),
        (["dynamics-defect", "--times", "0"], "--times", "must hold a nonzero time"),
        (["chern", "--kgrid", "1"], "--kgrid", "must be >= 2"),
        (["disorder-dos", "--W", "-1"], "--W", "must be >= 0"),
    ],
)
def test_bad_value_exits_2_before_any_eigensolve(
    argv, flag, reason, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve before the config was checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: bad value for {flag}:" in err and reason in err


@pytest.mark.parametrize(
    "argv",
    [
        ["disorder-dos", "--flux", "0/1", "--L", "30", "--nseeds", "20"],
        ["disorder-dos", "--flux", "1/3", "--gap-tol", "10"],
    ],
)
def test_gapless_clean_bands_exit_2_before_any_box_solve(argv, monkeypatch, capsys):
    # the clean bands come from stacks of fibers; a single 2-D solve is a box
    real = np.linalg.eigvalsh

    def fibers_only(a, *args, **kwargs):
        if np.ndim(a) == 2:
            raise AssertionError("box eigensolve before the clean gaps were checked")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", fibers_only)
    assert main(argv) == 2
    assert "has no gap to fill" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, gate",
    [
        (["continuum-spectrum", "--B", "10", "--amplitude", "1e308"], "energy"),
        (["lll-compare", "--B", "10", "--amplitude", "1e308"], "distance_or_coupling"),
        (["disorder-dos", "--L", "6", "--nseeds", "2", "--W", "1e308"], "dos"),
        # the overflowing operator fails its eigenvalue check before any gate
        (
            ["dynamics-defect", "--B", "10", "--ncells", "2", "--nlevels", "3",
             "--amplitude", "1e308"],
            None,
        ),
    ],
)
# a numpy RuntimeWarning raised as an error would escape main
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_result_exits_3(argv, gate, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    if gate is None:
        assert err.startswith("error: ") and "non-finite" in err
    else:
        assert f"  {gate}_not_finite = " in err
        assert err.rstrip().endswith("-> FAIL")
    assert "Traceback" not in err


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


def test_harper_spectrum_fails_outside_narrowed_bands(monkeypatch, capsys):
    argv = ["harper-spectrum", "--flux", "2/5", "--thetagrid", "8", "--kgrid", "8",
            "--tol", "1e-4"]
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
    exact = cli.exact_bands

    def unshifted_exact_bands(flux):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigvalsh", eigvalsh)
            return exact(flux)

    # every eigenvalue moves up by 1e-3, the reference bands stay put
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *args, **kw: eigvalsh(a, *args, **kw) + 1e-3
    )
    monkeypatch.setattr(cli, "exact_bands", unshifted_exact_bands)
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

    for module in (cli, continuum, dynamics):
        monkeypatch.setattr(module, "field_operator", oversize)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: Unable to allocate 755. GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["continuum-spectrum", "lll-compare", "dynamics-defect"]
)
def test_cross_coset_entry_exits_3(command, monkeypatch, capsys):
    # B = 5 on 2 cells: n_flux 6 in g = 2 cosets; guiding 0 and 1 lie in
    # different ones. The zeros between cosets are structural, so even a
    # 1e-300 entry is a leak
    real = continuum.continuum_hamiltonian

    def leaky(basis, potential):
        ham = real(basis, potential)
        ham.matrix[0, 1] = ham.matrix[1, 0] = 1e-300
        return ham

    argv = [command, "--B", "5", "--ncells", "2", "--nlevels", "3"]
    assert main(argv) == 0
    monkeypatch.setattr(continuum, "continuum_hamiltonian", leaky)
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
        (["gauge-check", "--B", "1/8", "--L", "8", "--kgrid", "16"], 0),
        (
            ["gauge-check", "--B", "1/8", "--L", "8", "--kgrid", "16", "--tol", "1e-20"],
            3,
        ),
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
