import json
import math
import re

import numpy as np
import pytest

from qbound.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, fmt, main
from qbound.measurement import EstimationContext, gaussian_sharp_family
from qbound.metrics import measurement_fisher
from qbound.quadrature import QuadSpec
from qbound.qubit import QubitState

PI = math.pi

TWELVE_DIGIT = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run(args):
    return main(args)


def test_fmt_is_twelve_significant_digits():
    for value in (0.5, -1.23456789e-7, 12345.678, 1e300):
        assert TWELVE_DIGIT.match(fmt(value)), fmt(value)


def test_metrics_json(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = run(["metrics", "--r", "0.5", "--theta", str(PI / 2), "--phi", str(3 * PI / 4),
                "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert abs(data["new_metric"][2][2] - 0.2789132170942154) <= 1e-12
    assert abs(data["sld_metric"][2][2] - 0.25) <= 1e-12
    assert abs(data["monotone_RLD"][1] - 4.0 / 3.0) <= 1e-12
    assert abs(data["measurement_fisher_phiphi"] - 0.25) <= 1e-10


def test_metrics_quadrature_flags_reach_fisher(tmp_path):
    state = QubitState(0.5, PI / 2, 3 * PI / 4)
    family = gaussian_sharp_family(EstimationContext(state))
    values = []
    for flags in ([], ["--panels", "2", "--order", "2"]):
        out = tmp_path / "metrics.json"
        assert run(["metrics", "--r", "0.5", *flags, "--out", str(out)]) == EXIT_OK
        values.append(json.loads(out.read_text())["measurement_fisher_phiphi"])
    assert values[1] == measurement_fisher(state, family, QuadSpec(2, 2))
    assert values[1] != values[0]


def test_metrics_csv_cells_are_formatted(tmp_path):
    out = tmp_path / "metrics.csv"
    code = run(["metrics", "--r", "0.5", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,value"
    for line in lines[1:]:
        _, value = line.split(",", 1)
        for cell in value.split(";"):
            if cell and cell not in ("True", "False"):
                assert TWELVE_DIGIT.match(cell), line


def test_metrics_domain_error_exit_code(capsys):
    code = run(["metrics", "--r", "0", "--theta", "1", "--phi", "1"])
    assert code == EXIT_DOMAIN
    assert "requires r in" in capsys.readouterr().err


def test_metrics_reports_family_errors(capsys):
    # only cos(phi) ~ 0 omits the Fisher entry; a bad family exits like audit
    for flags, message in ((["--sigma", "-1"], "sigma must be positive"),
                           (["--eps", "nan"], "eps must be finite")):
        assert run(["metrics", "--r", "0.5", *flags]) == EXIT_DOMAIN, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_metrics_reports_family_errors_at_cos_zero(capsys):
    # the Fisher entry is omitted at cos(phi) ~ 0, but bad flags still fail
    for flags, message in ((["--sigma", "-1"], "sigma must be positive"),
                           (["--eps", "nan"], "eps must be finite"),
                           (["--sigma", "-1", "--eps", "nan"], "eps must be finite")):
        code = run(["metrics", "--r", "0.5", "--phi", "1.5707963267948966", *flags])
        assert code == EXIT_DOMAIN, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_nan_sigma_is_reported_as_such(capsys):
    for argv in (["audit", "--r", "0.5"],
                 ["povm", "validate", "--r", "0.5"],
                 ["simulate", "--r", "0.5", "--samples", "10"],
                 ["bounds", "sweep", "--steps", "2"]):
        assert run(argv + ["--sigma", "nan"]) == EXIT_DOMAIN, argv
        assert "sigma must be positive" in capsys.readouterr().err, argv


def test_metrics_missing_r(capsys):
    code = run(["metrics"])
    assert code == EXIT_DOMAIN


def test_povm_validate_sharp(tmp_path):
    out = tmp_path / "val.json"
    code = run(["povm", "validate", "--r", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["all_ok"] is True
    assert data["completeness_residual"] <= 1e-9
    assert data["family"].startswith("gaussian-sharp")


def test_povm_validate_tabulated_csv(tmp_path):
    table = tmp_path / "fam.csv"
    center = 3 * PI / 4
    grid = np.linspace(center - PI, center + PI, 41)
    lines = ["phi_hat,x11,x12,y12"]
    for g in grid:
        lines.append(f"{float(g)!r},{1.0 / (2 * PI)!r},0.0,0.0")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "val.json"
    code = run(["povm", "validate", "--r", "0.5", "--csv", str(table), "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["completeness_residual"] <= 1e-9
    assert data["all_ok"] is True


def test_povm_validate_csv_refuses_family_options(tmp_path, capsys):
    # a table carries its own window, so --eps and --sigma would be ignored
    table = tmp_path / "fam.csv"
    grid = np.linspace(-PI, PI, 41)
    rows = [f"{float(g)!r},{1.0 / (2 * PI)!r},0.0,0.0" for g in grid]
    table.write_text("\n".join(["phi_hat,x11,x12,y12", *rows]) + "\n", encoding="utf-8")
    argv = ["povm", "validate", "--r", "0.4", "--csv", str(table)]
    cfg = tmp_path / "run.cfg"
    for extra, config in ((["--eps", "0.7"], None), (["--sigma", "3"], None),
                          ([], "eps = 0.7\n"), ([], "sigma = 3\n")):
        if config is not None:
            cfg.write_text(config, encoding="utf-8")
            extra = ["--config", str(cfg)]
        assert run(argv + extra) == EXIT_DOMAIN, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot be used with it" in captured.err, extra
    assert run(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_ok"] is True


def test_bounds_sweep_csv_and_determinism(tmp_path):
    args = ["bounds", "sweep", "--r-min", "0.1", "--r-max", "0.9", "--steps", "9",
            "--theta", "1.5707963", "--phi", "2.3561945", "--eps", "0",
            "--format", "csv"]
    out1 = tmp_path / "fig1a.csv"
    out2 = tmp_path / "fig1b.csv"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "r,B_max,B_SLD,B_RLD,B_Fisher,B_Husimi,v,vg_minus_C"
    assert len(lines) == 10
    for line in lines[1:]:
        for cell in line.split(","):
            assert TWELVE_DIGIT.match(cell), line


def test_bounds_sweep_reports_failed_row(capsys):
    code = run(["bounds", "sweep", "--r-min", "0", "--r-max", "0.5", "--steps", "3",
                "--format", "json"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "row r=0 failed: new_metric requires r in" in captured.err
    rows = json.loads(captured.out)["rows"]
    assert "new_metric requires r in" in rows[0]["error"]
    for row in rows[1:]:
        assert row["error"] is None
        assert all(math.isfinite(row[c]) for c in row if c != "error")


def test_bounds_sweep_at_theta_zero_marks_rows(capsys):
    code = run(["bounds", "sweep", "--theta", "0", "--steps", "2", "--format", "csv"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.count("failed: sin(theta) = 0") == 2
    assert "Traceback" not in captured.err
    assert len(captured.out.splitlines()) == 3


def test_zero_quadrature_flags_are_refused(capsys):
    for flags, message in ((["--panels", "0"], "panels must be >= 1"),
                           (["--order", "0"], "order must be >= 2")):
        code = run(["povm", "validate", "--r", "0.5", "--format", "csv", *flags])
        assert code == EXIT_DOMAIN, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err, flags


def _no_constant(token):
    raise ValueError(f"non-RFC 8259 token {token}")


def test_json_writes_non_finite_as_null(capsys):
    for argv in (["bounds", "sweep", "--r-min", "0", "--r-max", "0.5", "--steps", "3"],
                 ["simulate", "--r", "0.5", "--samples", "1", "--seed", "1"]):
        run(argv + ["--format", "json"])
        data = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        if "rows" in data:
            assert data["rows"][0]["B_max"] is None
        else:
            assert data["mean_standard_error"] is None
            assert data["variance_standard_error"] is None


def test_log_y_without_svg_is_refused(tmp_path, capsys):
    assert run(["bounds", "sweep", "--steps", "2", "--log-y"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--svg" in captured.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("log_y = true\n", encoding="utf-8")
    assert run(["bounds", "sweep", "--steps", "2", "--config", str(cfg)]) == EXIT_DOMAIN
    assert "--svg" in capsys.readouterr().err


def test_bounds_sweep_svg(tmp_path):
    out = tmp_path / "fig1.csv"
    svg = tmp_path / "fig1.svg"
    code = run(["bounds", "sweep", "--steps", "5", "--out", str(out), "--svg", str(svg),
                "--format", "csv", "--log-y"])
    assert code == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 5
    # determinism of the chart itself
    svg2 = tmp_path / "fig2.svg"
    run(["bounds", "sweep", "--steps", "5", "--out", str(out), "--svg", str(svg2),
         "--format", "csv", "--log-y"])
    assert svg.read_bytes() == svg2.read_bytes()


def test_audit_json(tmp_path):
    out = tmp_path / "audit.json"
    code = run(["audit", "--r", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert abs(data["fixed_window_residual"] + data["boundary_term"]) <= 1e-10
    assert data["slack_outer"] >= -1e-10
    assert data["imag_residual"] <= 1e-10


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--r", "0.5", "--samples", "20000", "--seed", "42"]
    out1 = tmp_path / "sim1.json"
    out2 = tmp_path / "sim2.json"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["samples"] == 20000
    assert abs(data["mean_empirical"] - data["mean_quadrature"]) <= 3 * data["mean_standard_error"]


def test_simulate_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QBOUND_SEED", "123")
    out = tmp_path / "sim.json"
    assert run(["simulate", "--r", "0.5", "--samples", "1000", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 123


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.4\ntheta=1.0\nsigma=3.0\n", encoding="utf-8")
    out = tmp_path / "m.json"
    code = run(["metrics", "--config", str(cfg), "--r", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["r"] == 0.5  # flag wins
    assert data["theta"] == 1.0  # file supplies the rest


def test_config_file_supplies_required_r(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.3\n", encoding="utf-8")
    out = tmp_path / "m.json"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["r"] == 0.3


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r=0.3\nbogus=1\n", encoding="utf-8")
    assert run(["metrics", "--config", str(cfg)]) == EXIT_DOMAIN
    assert "unknown config key" in capsys.readouterr().err
    # the subcommand is chosen on the command line, not by the file
    cfg.write_text("r=0.3\ncommand=audit\n", encoding="utf-8")
    assert run(["metrics", "--config", str(cfg)]) == EXIT_DOMAIN
    assert f"{cfg}:2: unknown config key" in capsys.readouterr().err


def test_config_file_loses_to_abbreviated_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 3\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = run(["bounds", "sweep", "--ste", "2", "--config", str(cfg), "--format", "csv",
                "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2


def test_config_file_value_is_checked_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, argv in (("format = xml\n", ["metrics", "--r", "0.5"]),
                       ("log_y = maybe\n", ["bounds", "sweep", "--steps", "2"]),
                       ("steps = 2.5\n", ["bounds", "sweep"])):
        cfg.write_text(text, encoding="utf-8")
        assert run(argv + ["--config", str(cfg)]) == EXIT_DOMAIN, text
        assert f"{cfg}:1" in capsys.readouterr().err, text


def test_io_error_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert run(["metrics", "--r", "0.5", "--out", str(missing_dir)]) == EXIT_IO


def test_selftest_passes(capsys):
    assert run(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8
