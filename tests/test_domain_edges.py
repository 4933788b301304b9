"""Every public function of bounds, metrics, measurement and derivatives on
the domain edges: r in {0, R_MIN, R_MAX, 1}, theta in {0, pi, 1}, phi at and
just past pi/2 (cos(phi) ~ 0) and at 3 pi/4, and phi_hat on both sides of
the window center, where the sharp families jump.

Each call ends in a finite result, a documented None or error row, or
DomainError.  Any other exception, and any warning, fails the test.
"""

import inspect
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from qbound import bounds, derivatives, measurement, metrics
from qbound.bounds import SweepRow
from qbound.derivatives import R_MAX, R_MIN
from qbound.measurement import EstimationContext, ValidationReport
from qbound.qubit import DomainError, ParamIndex, QubitState, density_matrix

PI = math.pi
EDGE_STATES = [
    QubitState(r, theta, phi)
    for r in (0.0, R_MIN, R_MAX, 1.0)
    for theta in (0.0, PI, 1.0)
    for phi in (PI / 2, PI / 2 + 1e-13, 3 * PI / 4)
]
# phi_hat offsets from the window center mu = phi (eps = 0)
SIDES = (-1e-9, 1e-9)
MODULES = (bounds, metrics, measurement, derivatives)
# the keys a None is documented for: the Fisher entry where cos(phi) ~ 0, and
# the error of a sweep row that succeeded
NONE_KEYS = {"measurement_fisher_phiphi", "error"}


def _family(state, build=measurement.gaussian_sharp_family):
    ctx = EstimationContext(state)
    return ctx, build(ctx)


def _elements(p, u):
    return p.elements(u)[:3]


def _table(state):
    """The Gaussian family tabulated on its window, with a node at each
    phi_hat of SIDES."""
    _, p = _family(state)
    lo, hi = p.window
    x = np.union1d(np.linspace(lo, hi, 65), [p.center + d for d in SIDES])
    return (x, *_elements(p, x))


def _csv(state, path):
    rows = zip(*(np.asarray(col).tolist() for col in _table(state)))
    text = "\n".join(["phi_hat,x11,x12,y12", *(",".join(map(repr, row)) for row in rows)])
    path.write_text(text + "\n", encoding="utf-8")
    return path


def edge_calls(tmp_path):
    """Name -> call(state, phi_hat) for every public function."""
    b, m, me, d = bounds, metrics, measurement, derivatives
    return {
        "ab_coefficients": lambda s, u: b.ab_coefficients(*_family(s)),
        "bound_Cmax": lambda s, u: b.bound_Cmax(*_family(s)),
        "theorem_general": lambda s, u: b.theorem_general(*_family(s)),
        "audit_derivation": lambda s, u: b.audit_derivation(*_family(s)),
        "bounds_sweep": lambda s, u: b.bounds_sweep([s.r], theta=s.theta, phi=s.phi),
        "metric_report": lambda s, u: b.metric_report(s),
        "new_metric": lambda s, u: [m.new_metric(s, k) for k in ("closed", "trace")],
        "sld_metric": lambda s, u: m.sld_metric(s),
        "sld_metric_trace": lambda s, u: m.sld_metric_trace(s),
        "rld_metric": lambda s, u: m.rld_metric(s),
        "monotone_metric": lambda s, u: [
            m.monotone_metric(f, s.r) for f in m.MONOTONE_SPECS.values()],
        "husimi_classical_metric": lambda s, u: [
            m.husimi_classical_metric(s, k) for k in ("closed", "quadrature")],
        "measurement_fisher": lambda s, u: m.measurement_fisher(s, _family(s)[1]),
        "gaussian_sharp_family": lambda s, u: _family(s)[1].elements(u),
        "tapered_sharp_family": lambda s, u: _family(s, me.tapered_sharp_family)[1].elements(u),
        "tabulated_family": lambda s, u: me.tabulated_family(*_table(s)).elements(u),
        "load_tabulated_csv": lambda s, u: me.load_tabulated_csv(
            _csv(s, tmp_path / "t.csv")).elements(u),
        "trace_with_elements": lambda s, u: me.trace_with_elements(
            density_matrix(s), *_elements(_family(s)[1], u)),
        "validate_povm": lambda s, u: me.validate_povm(_family(s)[1], EstimationContext(s)),
        "outcome_distribution": lambda s, u: me.outcome_distribution(*_family(s)).pdf(u),
        "estimator_moments": lambda s, u: me.estimator_moments(*_family(s)),
        "sample_outcomes": lambda s, u: me.sample_outcomes(
            me.outcome_distribution(*_family(s)), 64, seed=0),
        "require_working_r": lambda s, u: d.require_working_r(s.r),
        "coeff_k": lambda s, u: d.coeff_k(s.r),
        "coeff_k_tilde": lambda s, u: d.coeff_k_tilde(s.r),
        "coeff_h3r": lambda s, u: d.coeff_h3r(s.r),
        "new_log_derivative": lambda s, u: [
            d.new_log_derivative(s, k, meth)
            for k in ParamIndex for meth in ("closed", "quadrature")],
        "sld": lambda s, u: [d.sld(s, k) for k in ParamIndex],
        "rld": lambda s, u: [d.rld(s, k) for k in ParamIndex],
        "deviation_h": lambda s, u: [
            d.deviation_h(s, k, meth) for k in ParamIndex for meth in ("closed", "definitional")],
    }


def _bad_parts(value, where="result"):
    """Where value is neither finite nor a documented None or error row."""
    if isinstance(value, SweepRow):
        if value.error is not None:
            return [] if value.error else [f"{where}: empty error"]
        value = value.as_dict()
    if isinstance(value, ValidationReport):
        value = value.as_dict()
    if isinstance(value, dict):
        return [
            bad
            for key, v in value.items()
            if not (v is None and key in NONE_KEYS)
            for bad in _bad_parts(v, f"{where}[{key!r}]")
        ]
    if isinstance(value, (list, tuple)):
        return [bad for i, v in enumerate(value) for bad in _bad_parts(v, f"{where}[{i}]")]
    if isinstance(value, (bool, str)):
        return []
    if isinstance(value, (int, float, complex, np.ndarray, np.generic)):
        return [] if np.all(np.isfinite(value)) else [f"{where} = {value!r}"]
    return [f"{where}: unexpected {type(value).__name__}"]


def test_edge_calls_cover_every_public_function(tmp_path):
    public = {
        name
        for module in MODULES
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }
    assert sorted(edge_calls(tmp_path)) == sorted(public)


@pytest.mark.parametrize("name", sorted(edge_calls(None)))
def test_public_functions_on_domain_edges(tmp_path, name):
    call = edge_calls(tmp_path)[name]
    for state, side in itertools.product(EDGE_STATES, SIDES):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(state, state.phi + side)
            except DomainError:
                continue
        if result is None and name == "require_working_r":
            continue
        assert _bad_parts(result) == [], (state, side)


# ------------------------------------------------- family width and window edges
TINY_SIGMA = 1e-300  # sigma^2 underflows to 0
HUGE_EPS = 1e300  # mu - pi, mu and mu + pi round to one float


def _cli(argv, capsys):
    from qbound.cli import main

    code = main(argv)
    return code, capsys.readouterr()


def test_families_name_a_sigma_whose_square_underflows():
    ctx = EstimationContext(QubitState(0.5, 1.0, 0.3))
    for sigma in (TINY_SIGMA, 1e-160, 5e-324):
        for build in (measurement.gaussian_sharp_family, measurement.tapered_sharp_family):
            with pytest.raises(DomainError, match="^" + re.escape(f"sigma = {sigma!r} is too small")):
                build(ctx, sigma=sigma)
    # a profile narrower than every node spacing cannot be normalized
    with pytest.raises(DomainError, match=r"^sigma = 1e-06 is too small"):
        measurement.tapered_sharp_family(ctx, sigma=1e-6)


def test_context_names_an_eps_that_collapses_the_window():
    state = QubitState(0.5, 1.0, 0.3)
    for eps in (HUGE_EPS, -HUGE_EPS, 1e17):
        with pytest.raises(DomainError, match="^" + re.escape(f"eps = {eps!r} collapses the window")):
            EstimationContext(state, eps=eps)
    # a window wide enough to keep its center inside is accepted
    assert EstimationContext(state, eps=1e15).center == 0.3 + 1e15


def test_width_and_window_errors_reach_reports_and_sweep_rows():
    state = QubitState(0.5, 1.0, 0.3)
    for kwargs, message in (({"sigma": TINY_SIGMA}, "sigma = 1e-300 is too small"),
                            ({"eps": HUGE_EPS}, "eps = 1e+300 collapses the window")):
        # the Fisher entry is skipped at cos(phi) ~ 0, but the flags are still checked
        for phi in (0.3, PI / 2):
            with pytest.raises(DomainError, match=re.escape(message)):
                bounds.metric_report(QubitState(0.5, 1.0, phi), **kwargs)
        rows = bounds.bounds_sweep([0.2, 0.8], theta=state.theta, phi=state.phi, **kwargs)
        assert [row.error[:len(message)] for row in rows] == [message, message]


@pytest.mark.parametrize("argv", [
    ["metrics", "--r", "0.5"],
    ["bounds", "sweep", "--steps", "2"],
    ["simulate", "--r", "0.5", "--samples", "10"],
    ["audit", "--r", "0.5"],
], ids=" ".join)
def test_cli_exits_1_naming_the_width_or_window(argv, capsys):
    for flags, message in ((["--sigma", "1e-300"], "sigma = 1e-300 is too small"),
                           (["--eps", "1e300"], "eps = 1e+300 collapses the window")):
        code, captured = _cli(argv + flags, capsys)
        assert code == 1, flags
        lines = captured.err.splitlines()
        if argv[0] == "bounds":
            # every row fails and says why
            assert [line.split(": ", 1)[1][:len(message)] for line in lines] == [message] * 2
        else:
            assert len(lines) == 1 and lines[0].startswith(f"qbound: {message}"), lines
            assert captured.out == ""


# ------------------------------------------------- an outcome density that vanishes
NARROW_SIGMA = 1e-10  # the Gaussian profile underflows to 0 at every node
EVERY_NODE = "outcome density vanishes at every quadrature node"


def test_fisher_names_a_density_that_vanishes_at_every_node():
    state = QubitState(0.5, 1.0, 0.3)
    narrow = measurement.gaussian_sharp_family(EstimationContext(state), sigma=NARROW_SIGMA)
    with pytest.raises(DomainError, match=f"^{EVERY_NODE}$"):
        metrics.measurement_fisher(state, narrow)
    with pytest.raises(DomainError, match=f"^{EVERY_NODE}$"):
        bounds.metric_report(state, sigma=NARROW_SIGMA)
    rows = bounds.bounds_sweep([0.2, 0.8], theta=state.theta, phi=state.phi, sigma=NARROW_SIGMA)
    assert [row.error for row in rows] == [EVERY_NODE, EVERY_NODE]


def test_fisher_entry_on_the_z_axis_stays_zero():
    # at theta = 0 the density is positive but does not move with phi
    report = bounds.metric_report(QubitState(0.5, 0.0, 3 * PI / 4))
    assert report["measurement_fisher_phiphi"] == 0.0


@pytest.mark.parametrize("argv", [
    ["metrics", "--r", "0.5"],
    ["bounds", "sweep", "--steps", "2"],
], ids=" ".join)
def test_cli_exits_1_where_the_density_vanishes_at_every_node(argv, capsys):
    code, captured = _cli(argv + ["--sigma", repr(NARROW_SIGMA)], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    if argv[0] == "bounds":
        assert [line.split(": ", 1)[1] for line in lines] == [EVERY_NODE] * 2
    else:
        assert lines == [f"qbound: {EVERY_NODE}"]
        assert captured.out == ""


# ------------------------------------------- a Gaussian exponent past the float range
SMALLEST_SIGMA = 1e-154  # 1/sigma^2 is finite, (pi/sigma)^2 is not


def test_gaussian_profile_whose_exponent_overflows_is_zero_without_a_warning():
    # the RuntimeWarning filter turns an overflow warning into an error
    ctx = EstimationContext(QubitState(0.5, 1.0, 0.3))
    fam = measurement.gaussian_sharp_family(ctx, sigma=SMALLEST_SIGMA)
    assert fam.elements(np.array([ctx.center - 3.0, ctx.center + 3.0]))[0].tolist() == [0.0, 0.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tapered_profile_whose_exponent_overflows_raises_the_domain_error():
    ctx = EstimationContext(QubitState(0.5, 1.0, 0.3))
    with pytest.raises(DomainError, match="profile vanishes at every node"):
        measurement.tapered_sharp_family(ctx, sigma=SMALLEST_SIGMA)


@pytest.mark.parametrize("argv", [
    ["simulate", "--r", "0.5", "--samples", "10"],
    ["audit", "--r", "0.5"],
    ["metrics", "--r", "0.5"],
    ["bounds", "sweep", "--steps", "2"],
], ids=" ".join)
def test_cli_at_the_smallest_sigma_writes_no_warning(argv, capsys):
    code, captured = _cli(argv + ["--sigma", repr(SMALLEST_SIGMA)], capsys)
    lines = captured.err.splitlines()
    if argv[0] == "bounds":
        assert code == 1
        assert [line.split(": ", 1)[1] for line in lines] == [EVERY_NODE] * 2
    elif argv[0] == "metrics":
        assert (code, lines) == (1, [f"qbound: {EVERY_NODE}"])
    else:
        assert (code, lines) == (0, [])
