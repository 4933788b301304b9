import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qbound import cli
from qbound.bounds import audit_derivation
from qbound.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_SELFTEST, fmt, main
from qbound.measurement import (
    EstimationContext,
    PovmFamily,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    validate_povm,
)
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


def _mass_error(family, sigma):
    """The stderr line of a family whose rule misses x11's mass."""
    m0 = family.grid().moment("x11", 0)
    return (f"qbound: {family.label}: x11 sums to m0 = {m0!r} on the family's grid, not 1 "
            f"within 1e-09: its rule does not resolve sigma = {sigma!r}")


def test_metrics_quadrature_flags_reach_fisher(tmp_path, capsys):
    state = QubitState(0.5, PI / 2, 3 * PI / 4)
    family = gaussian_sharp_family(EstimationContext(state))

    def fisher_on(spec):
        # the sharp family's entry r^2 sin^2(theta) m0, m0 on the flagged rule's grid
        st = math.sin(state.theta)
        return state.r * state.r * (st * st * replace(family, spec=spec).grid().moment("x11", 0))

    values = []
    for flags in ([], ["--panels", "4", "--order", "4"], ["--panels", "8"], ["--order", "6"]):
        out = tmp_path / "metrics.json"
        assert run(["metrics", "--r", "0.5", *flags, "--out", str(out)]) == EXIT_OK
        values.append(json.loads(out.read_text())["measurement_fisher_phiphi"])
    assert values[1] == fisher_on(QuadSpec(4, 4))
    assert values[1] != values[0]
    # one flag alone keeps the default of the other
    assert values[2] == fisher_on(QuadSpec(8, 16))
    assert values[3] == fisher_on(QuadSpec(64, 6))
    # a 2 x 2 rule misses x11's mass by 2.3e-5, and the Fisher entry with it
    capsys.readouterr()
    assert run(["metrics", "--r", "0.5", "--panels", "2", "--order", "2"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _mass_error(replace(family, spec=QuadSpec(2, 2)), 3.0) + "\n")


def _json_of(tmp_path, argv):
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


@pytest.mark.parametrize("given", [{"panels": 2, "order": 3}, {"panels": 8}, {"order": 6}], ids=str)
def test_family_commands_integrate_on_the_flagged_rule(given, tmp_path, capsys):
    # one flag alone keeps the default of the other
    ctx = EstimationContext(QubitState(0.5, PI / 2, 3 * PI / 4), eps=0.1)
    family = replace(gaussian_sharp_family(ctx, sigma=2.0), spec=QuadSpec(**given))
    flags = [f"--{k}={v}" for k, v in given.items()]
    common = ["--r", "0.5", "--eps", "0.1", "--sigma", "2", *flags]
    assert _json_of(tmp_path, ["povm", "validate", *common]) == {
        "family": family.label, **validate_povm(family, ctx).as_dict()}
    if given == {"panels": 2, "order": 3}:
        # this rule misses x11's mass by 2.2e-7, so audit and simulate refuse it
        capsys.readouterr()
        for argv in (["audit", *common], ["simulate", *common, "--samples", "10"]):
            assert run(argv) == EXIT_DOMAIN
            assert capsys.readouterr() == ("", _mass_error(family, 2.0) + "\n")
        return
    assert _json_of(tmp_path, ["audit", *common]) == {
        "family": family.label, **audit_derivation(ctx, family)}
    sim = _json_of(tmp_path, ["simulate", *common, "--samples", "10"])
    assert (sim["mean_quadrature"], sim["variance_quadrature"]) == estimator_moments(ctx, family)


def test_povm_validate_csv_flags_replace_the_table_rule(tmp_path, monkeypatch):
    # without flags a table keeps its own 1 x 4 rule; a lone flag defaults
    # the other value, not the table's
    table = tmp_path / "fam.csv"
    grid = np.linspace(3 * PI / 4 - PI, 3 * PI / 4 + PI, 41)
    rows = [f"{g!r},{(1 + 0.3 * math.cos(g)) / (2 * PI)!r},{0.05 * math.sin(g)!r},0.0"
            for g in grid.tolist()]
    table.write_text("\n".join(["phi_hat,x11,x12,y12", *rows]) + "\n", encoding="utf-8")
    family, ctx = load_tabulated_csv(table), EstimationContext(QubitState(0.5, PI / 2, 3 * PI / 4))
    seen = []
    monkeypatch.setattr(cli, "validate_povm", lambda p, c: seen.append(p.spec) or validate_povm(p, c))
    cases = {(): QuadSpec(1, 4), ("--panels", "2"): QuadSpec(2, 16),
             ("--order", "6"): QuadSpec(64, 6), ("--panels", "2", "--order", "3"): QuadSpec(2, 3)}
    for flags, spec in cases.items():
        data = _json_of(tmp_path, ["povm", "validate", "--r", "0.5", "--csv", str(table), *flags])
        assert data == {"family": str(table), **validate_povm(replace(family, spec=spec), ctx).as_dict()}
    assert seen == list(cases.values())


def test_povm_validate_is_diagnostic_and_exits_0_on_failed_checks(tmp_path):
    data = _json_of(tmp_path, ["povm", "validate", "--r", "0.5", "--panels", "2", "--order", "3"])
    assert data["completeness_ok"] is False
    assert data["all_ok"] is False


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


def test_metrics_csv_writes_the_omitted_fisher_entry_as_an_empty_cell(capsys):
    assert run(["metrics", "--r", "0.5", "--phi", "1.5707963267948966", "--format", "csv"]) == EXIT_OK
    assert "measurement_fisher_phiphi," in capsys.readouterr().out.splitlines()


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


def test_povm_validate_csv_cell_over_the_field_limit_names_its_line(tmp_path, capsys):
    table = tmp_path / "wide.csv"
    wide = " " * (csv.field_size_limit() + 1)
    table.write_text(f"phi_hat,x11,x12,y12\n{wide}0.25,0.5,0,0\n1.0,0.5,0,0\n", encoding="utf-8")
    code = run(["povm", "validate", "--r", "0.5", "--csv", str(table)])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{table}:2: field larger than field limit" in captured.err
    assert "Traceback" not in captured.err


def test_povm_validate_csv_rejects_a_table_whose_slope_overflows(tmp_path, capsys):
    # finite cells, but np.interp's slope between them is not
    table = tmp_path / "huge.csv"
    table.write_text("phi_hat,x11,x12,y12\n-1,0.5,1.7e308,0\n1,0.5,-1.7e308,0\n", encoding="utf-8")
    code = run(["povm", "validate", "--r", "0.5", "--csv", str(table)])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qbound: {table}: column x12 has a non-finite slope between rows 1 and 2\n"


def test_povm_validate_csv_names_a_non_finite_column(tmp_path, capsys):
    table = tmp_path / "nan.csv"
    table.write_text("phi_hat,x11,x12,y12\n0.0,nan,0,0\n1.0,0.5,0,0\n", encoding="utf-8")
    assert run(["povm", "validate", "--r", "0.5", "--csv", str(table)]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"qbound: {table}: column x11 contains non-finite values\n")


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


def test_bounds_sweep_refuses_zero_steps(capsys):
    assert run(["bounds", "sweep", "--steps", "0"]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", "qbound: steps must be >= 1\n")


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
    # at theta = 0, and where r^2 sin(theta)^2 underflows, one failed line per row
    for theta in ("0", "1e-160", "1e-170", "1e-300", "5e-324"):
        code = run(["bounds", "sweep", "--theta", theta, "--steps", "2", "--format", "csv"])
        assert code == EXIT_DOMAIN, theta
        captured = capsys.readouterr()
        failed = re.findall(r"^row r=\S+ failed: the phi-phi entries vanish", captured.err, re.M)
        assert len(failed) == 2, theta
        assert "Traceback" not in captured.err
        assert len(captured.out.splitlines()) == 3


def test_negative_values_in_exponent_form_are_values(capsys):
    assert run(["metrics", "--r", "0.5", "--eps=-1e-05", "--format", "json"]) == EXIT_OK
    joined = capsys.readouterr()
    assert run(["metrics", "--r", "0.5", "--eps", "-1e-05", "--format", "json"]) == EXIT_OK
    assert capsys.readouterr() == joined
    code = run(["bounds", "sweep", "--steps", "2", "--theta", "-1e-300", "--format", "csv"])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err.count("failed: theta must lie in [0, pi], got -1e-300") == 2


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
def test_negative_non_finite_values_are_values(value, capsys):
    # two tokens and the = form reach the same finiteness check
    assert run(["metrics", "--r", "0.5", f"--eps={value}", "--format", "csv"]) == EXIT_DOMAIN
    joined = capsys.readouterr()
    assert run(["metrics", "--r", "0.5", "--eps", value, "--format", "csv"]) == EXIT_DOMAIN
    assert capsys.readouterr() == joined
    assert joined.err == "qbound: eps must be finite\n"


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
                 ["simulate", "--r", "0.5", "--samples", "1", "--seed", "1"],
                 ["simulate", "--r", "0.5", "--samples", "2", "--seed", "1"]):
        run(argv + ["--format", "json"])
        data = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        if "rows" in data:
            assert data["rows"][0]["B_max"] is None
        elif data["samples"] == 1:
            assert data["mean_standard_error"] is None
            assert data["variance_standard_error"] is None
        else:  # two draws have finite, positive standard errors
            assert data["mean_standard_error"] > 0
            assert data["variance_standard_error"] > 0


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


def test_bounds_sweep_svg_names_the_failed_rows_before_the_chart_fails(tmp_path, capsys):
    # at theta = 0 every row fails, so there is no chart; stderr still says why
    svg = tmp_path / "fig.svg"
    assert run(["bounds", "sweep", "--theta", "0", "--steps", "2", "--svg", str(svg)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(": ", 1)[0] for line in lines[:2]] == ["row r=0.1 failed", "row r=0.9 failed"]
    assert lines[2:] == ["qbound: no successful sweep rows to plot"]
    assert [row["error"] is not None for row in json.loads(captured.out)["rows"]] == [True, True]
    assert not svg.exists()


def test_audit_json(tmp_path):
    out = tmp_path / "audit.json"
    code = run(["audit", "--r", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert abs(data["fixed_window_residual"] + data["boundary_term"]) <= 1e-10
    assert data["slack_outer"] >= -1e-10
    assert data["imag_residual"] == 0.0


@pytest.mark.parametrize("argv", [
    ["audit", "--r", "0.5"],
    ["simulate", "--r", "0.5", "--samples", "100"],
], ids=" ".join)
def test_family_commands_build_one_grid(argv, monkeypatch, capsys):
    # the API reads the moments and checks the mass on the same grid
    built, grid = [], PovmFamily.grid
    monkeypatch.setattr(PovmFamily, "grid", lambda self: built.append(self.label) or grid(self))
    assert run(argv) == EXIT_OK
    assert built == ["gaussian-sharp(sigma=3)"]


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


@pytest.mark.parametrize(
    "env, flags, err",
    [
        ("abc", [], "qbound: QBOUND_SEED: expected a non-negative integer, got 'abc'\n"),
        ("-5", [], "qbound: QBOUND_SEED: expected a non-negative integer, got -5\n"),
        (None, ["--seed", "-3"], "qbound: --seed: expected a non-negative integer, got -3\n"),
        (None, ["--samples", "-1"], "qbound: --samples: expected a non-negative integer, got -1\n"),
    ],
    ids=["env-not-int", "env-negative", "seed-negative", "samples-negative"],
)
def test_simulate_input_errors_name_their_source(env, flags, err, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("QBOUND_SEED", raising=False)
    else:
        monkeypatch.setenv("QBOUND_SEED", env)
    assert run(["simulate", "--r", "0.5", *flags]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_simulate_out_of_memory_names_samples(monkeypatch, capsys):
    def sample_outcomes(dist, n, seed):
        raise MemoryError(f"Unable to allocate 745. GiB for an array with shape ({n},)")

    monkeypatch.setattr(cli, "sample_outcomes", sample_outcomes)
    assert run(["simulate", "--r", "0.5", "--samples", "100000000000"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "qbound: --samples: Unable to allocate 745. GiB for an array with shape (100000000000,)\n")


def test_simulate_holds_one_array_of_draws(capsys):
    n = 1_000_000
    tracemalloc.start()
    try:
        assert run(["simulate", "--r", "0.5", "--samples", str(n)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the draws, and one leaf of the standard errors' pairwise sum
    assert 8 * n <= peak < 8 * n * 1.5
    assert json.loads(capsys.readouterr().out)["samples"] == n


@pytest.mark.parametrize("n", [2, 3, 8, 9, 127, 128, 129, 8191, 8192, 8193, 16385, 100_007,
                               1_000_000, 1_000_003])
def test_sample_std_matches_np_std_bit_for_bit(n):
    # the leaves are nodes of numpy's own pairwise-summation tree; a numpy
    # that splits its sum elsewhere fails here, by name
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n)
    for scale, offset in ((1.0, 0.0), (1e-6, 3.0), (2.5e4, -7e5)):
        x = z * scale + offset
        want, got = np.float64(np.std(x, ddof=1)), np.float64(cli._sample_std(x))
        assert want.view(np.uint64) == got.view(np.uint64), (
            f"numpy {np.__version__}: n={n} scale={scale} offset={offset}: "
            f"np.std {want!r}, _sample_std {got!r}")


IMPORT_FLOOR = """
import contextlib, io, sys
import qbound.cli

def unused():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "polynomial"]))

print("import", unused(), "json" in sys.modules)
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qbound.cli.main(argv)
    print(argv[0], code, unused())
"""


def test_commands_load_no_numpy_module_they_do_not_use(tmp_path):
    table = tmp_path / "fam.csv"
    grid = np.linspace(0.0, 2 * PI, 9)
    table.write_text("phi_hat,x11,x12,y12\n" + "".join(
        f"{float(g)!r},{1.0 / (2 * PI)!r},0.0,0.0\n" for g in grid), encoding="utf-8")
    commands = [
        ["bounds", "sweep", "--steps", "2", "--format", "csv"],
        ["simulate", "--r", "0.5", "--samples", "1000"],
        ["selftest"],
        ["povm", "validate", "--csv", str(table), "--r", "0.5", "--format", "csv"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", IMPORT_FLOOR.format(commands=commands)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import [] False", "bounds 0 []", "simulate 0 []", "selftest 0 []", "povm 0 []"]


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


def test_config_file_skips_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nr = 0.4\n", encoding="utf-8")
    out = tmp_path / "m.json"
    assert run(["metrics", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["r"] == 0.4
    # a line that is neither is named by its number
    cfg.write_text("# a comment\n\nr = 0.4\nsigma\n", encoding="utf-8")
    assert run(["metrics", "--config", str(cfg)]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", f"qbound: {cfg}:4: expected key=value\n")


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


def test_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert run(["metrics", "--r", "0.5", "--out", str(missing_dir)]) == EXIT_IO
    assert "qbound: i/o error" in capsys.readouterr().err
    # argparse exits 2 on a usage error; an I/O failure must be told apart
    assert EXIT_IO not in (EXIT_OK, EXIT_DOMAIN, 2)
    for argv in (["metrics", "--r", "abc"], ["metrics", "--r", "0.5", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


def test_selftest_passes(capsys):
    assert run(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_selftest_exits_3_on_a_failed_or_raising_check(monkeypatch, capsys):
    from qbound import selftest

    def _check_sampling():
        return 1 / 0

    for check, line in ((lambda: selftest.CheckResult("forced", False, "forced to fail"),
                         "FAIL  forced  [forced to fail]"),
                        (_check_sampling,
                         "FAIL  _check_sampling  [raised ZeroDivisionError('division by zero')]")):
        monkeypatch.setattr(selftest, "_check_sampling", check)
        assert run(["selftest"]) == EXIT_SELFTEST
        assert capsys.readouterr().out.splitlines()[-1] == line


# sha256 of the stdout of each command, recorded with numpy 2.4 on x86-64
# before the family traces moved to real arithmetic.  Their CSV must stay
# byte-identical; selftest's residual digits sit at rounding level and may
# differ on another platform.  The povm validate and selftest hashes were
# recorded again when window integrals moved to the grid's moment table,
# which moved only rounding-level cells (unbiasedness_residual, and
# selftest's worst change, worst violation and var residual).  The metrics
# hash was recorded again when rld_metric became a closed form: its six
# off-diagonal cells went from rounding noise (about 1e-17) to exact zeros.
# The audit, both sweep and selftest hashes were recorded again when K, K~
# and h3/r moved from a log form to the summed atanh tail, which took h3/r's
# 2.5e-11 error at r = 0.1 to rounding: two B_max cells of the 200-row sweep
# and one of the 8-panel sweep (r = 0.1, 0.108) moved in the 12th digit, and
# audit's quadratic_form_residual and selftest's worst change and worst
# disagreement at rounding level.
PINNED_SHA256 = {
    ("audit", "--r", "0.5", "--format", "csv"):
        "429e86d6be1bbaeb8e79cc6f38d996ff07bc79e62d4799e23d9d523b10e69044",
    ("bounds", "sweep", "--steps", "200", "--format", "csv"):
        "47a7b10588f148fc62a49e04f48b55929aa196dcc3aaee4065ac749891f9154f",
    ("bounds", "sweep", "--panels", "8", "--order", "6", "--eps", "0.1", "--format", "csv"):
        "86fb489a18585ff48efe85f8d1612920bc70c5f0e3bdd03a2ed16249f9ccf714",
    ("povm", "validate", "--r", "0.5", "--format", "csv"):
        "ecf6e2216510abf047b7f18fc676e1fd57303ebcaf6f8e4faf5f9896c5add8f6",
    ("metrics", "--r", "0.5", "--format", "csv"):
        "e1026ab780d3255525fba624972e10e94e512d6e36449e50322fdff1e91faf62",
    ("selftest",):
        "d72eca8f5189d0cc302ed8081cd6cd23ee0667e8d9ebcd9d85f6457ed6811ab0",
    ("simulate", "--r", "0.5", "--samples", "1000", "--format", "csv"):
        "f3c1c0f91b0949e17b4c5a62ff35471b23eb8321d08624a199e45a9af26baa0b",
    ("simulate", "--r", "0.9", "--eps", "0.3", "--samples", "1000", "--format", "json"):
        "1f5f727d6d42a274b7d82042ec59df82537c7b4ff4b00bc2bdd16a63732f0bd9",
    ("simulate", "--r", "0.5", "--samples", "200000", "--seed", "3", "--format", "json"):
        "f4ca9b79d47e7b4c9268e6b2af9d45dd8ed86ff5e178e0c0a787f4a354414dcd",
}


@pytest.mark.parametrize("argv", PINNED_SHA256, ids=" ".join)
def test_cli_output_bytes_are_pinned(argv, capsys, monkeypatch):
    monkeypatch.delenv("QBOUND_SEED", raising=False)
    assert run(list(argv)) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_SHA256[argv]


# sha256 of the --svg chart of the default 9-row sweep, linear and log-scaled,
# recorded with numpy 2.4 on x86-64 before each series was built once for
# both its y range and its polyline.
SVG_SHA256 = {
    (): "9e75de80eb4916469c4682b4feb7e3a6a14470df1ac77ff3e1c40688186d6bdb",
    ("--log-y",): "8666aa93b43c1f1f7abcb148c4fa9577e14ba8f7f97985a8fd87bcb1e39eff56",
}


@pytest.mark.parametrize("flags", SVG_SHA256, ids=lambda flags: " ".join(flags) or "linear")
def test_sweep_chart_bytes_are_pinned(flags, tmp_path, capsys):
    svg = tmp_path / "sweep.svg"
    assert run(["bounds", "sweep", "--steps", "9", "--svg", str(svg), *flags]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == SVG_SHA256[flags]


# ------------------------------------------ one run as flags, as a config file, or split
_ANGLES = {"theta": st.floats(0.1, PI - 0.1),
           "phi": st.floats(-3.0, 3.0).filter(lambda p: abs(math.cos(p)) > 1e-3)}
_COMMON = {"eps": st.floats(-0.5, 0.5), "sigma": st.floats(0.3, 10.0), "panels": st.integers(1, 16),
           "order": st.integers(2, 12), "format": st.sampled_from(("csv", "json"))}
_STATE = {"r": st.floats(0.05, 0.95), **_ANGLES, **_COMMON}
# each leaf command's value flags but --out, --svg and --config, with valid values
VALUE_FLAGS = {
    ("metrics",): _STATE,
    ("povm", "validate"): {**_STATE, "csv": st.just("table.csv")},
    ("bounds", "sweep"): {"r-min": st.floats(0.05, 0.5), "r-max": st.floats(0.5, 0.95),
                          "steps": st.integers(1, 4), **_ANGLES, **_COMMON},
    ("audit",): _STATE,
    ("simulate",): {**_STATE, "samples": st.integers(0, 300), "seed": st.integers(0, 2 ** 32)},
}


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def three_ways_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("three_ways")
    ctx = EstimationContext(QubitState(0.5, 1.0, 0.3))
    family = gaussian_sharp_family(ctx)
    x = np.linspace(*family.window, 33)
    rows = zip(x, *(np.asarray(e) for e in family.elements(x)[:3]))
    (path / "table.csv").write_text(
        "\n".join(["phi_hat,x11,x12,y12", *(",".join(map(repr, map(float, row))) for row in rows)])
        + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", VALUE_FLAGS, ids=" ".join)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flags_config_file_and_their_split_print_the_same(command, three_ways_dir, data):
    strategies = VALUE_FLAGS[command]
    names = data.draw(st.lists(st.sampled_from(sorted(strategies)), unique=True), label="flags")
    if "r" in strategies and "r" not in names:
        names.append("r")
    if "csv" in names:  # a table carries its own window
        names = [n for n in names if n not in ("eps", "sigma")]
    values = {n: data.draw(strategies[n], label=n) for n in names}
    values = {n: str(three_ways_dir / v) if n == "csv" else repr(v) if isinstance(v, float) else str(v)
              for n, v in values.items()}
    as_flags = data.draw(st.lists(st.booleans(), min_size=len(names), max_size=len(names)),
                         label="as flags")
    # each flag as one token "--name=value" or as two, "--name" "value"
    joined = dict(zip(names, data.draw(st.lists(st.booleans(), min_size=len(names),
                                                max_size=len(names)), label="joined")))
    config = three_ways_dir / "run.cfg"

    def run_with(flag_names):
        flags = [token for n in flag_names
                 for token in ([f"--{n}={values[n]}"] if joined[n] else [f"--{n}", values[n]])]
        config.write_text("".join(f"{n} = {values[n]}\n" for n in names if n not in flag_names),
                          encoding="utf-8")
        return _captured_main([*command, *flags, "--config", str(config)])

    first = run_with(names)
    assert run_with(names) == first
    assert run_with([]) == first
    assert run_with([n for n, f in zip(names, as_flags) if f]) == first
