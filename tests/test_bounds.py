import dataclasses
import itertools
import json
import math
import re

import mpmath
import numpy as np
import pytest

from qbound import bounds, derivatives, measurement, metrics, quadrature
from qbound.bounds import (
    SweepRow,
    ab_coefficients,
    audit_derivation,
    bound_Cmax,
    bounds_sweep,
    theorem_general,
)
from qbound.measurement import (
    EstimationContext,
    estimator_moments,
    gaussian_sharp_family,
    tabulated_family,
    tapered_sharp_family,
    validate_povm,
)
from qbound.derivatives import R_MAX, R_MIN, coeff_k
from qbound.metrics import (
    husimi_classical_metric,
    measurement_fisher,
    new_metric,
    rld_metric,
    sld_metric,
)
from qbound.quadrature import QuadSpec, QuadratureError, nodes_1d
from qbound.qubit import DomainError, QubitState

from conftest import (
    PI,
    GRID_R,
    SharpOracle,
    h3_amplitude,
    new_metric_phiphi_oracle,
)

STANDARD = QubitState(0.5, PI / 2, 3 * PI / 4)
ORACLE = SharpOracle(3.0)


def standard_ctx(r=0.5, theta=PI / 2, phi=3 * PI / 4, eps=0.0):
    return EstimationContext(QubitState(r, theta, phi), eps=eps)


def uniform_diagonal_family(center):
    grid = np.linspace(center - PI, center + PI, 33)
    flat = np.full_like(grid, 1.0 / (2.0 * PI))
    zeros = np.zeros_like(grid)
    return tabulated_family(grid, flat, zeros, zeros, label="uniform")


# ----------------------------------------------------------------- a and b
def test_ab_sharp_family():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    a, b = ab_coefficients(ctx, fam)
    assert abs(a) <= 1e-10
    assert abs(b - ORACLE.b(0.5, PI / 2)) <= 1e-10


def test_ab_names_abscissa_of_non_finite_element_derivative():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)
    x, _ = nodes_1d(*base.window, base.quad_spec())
    bad = float(x[100])

    def elements(u):
        u = np.asarray(u, dtype=float)
        *values, d_x11, d_x12, d_y12 = base.elements(u)
        return (*values, np.where(u == bad, np.nan, d_x11), d_x12, d_y12)

    with pytest.raises(QuadratureError, match=re.escape(repr(bad))):
        ab_coefficients(ctx, dataclasses.replace(base, elements=elements))


def test_b_matches_closed_form_reference():
    for r in (0.1, 0.5, 0.9):
        for th in (PI / 6, PI / 2):
            ctx = standard_ctx(r=r, theta=th)
            _, b = ab_coefficients(ctx, gaussian_sharp_family(ctx))
            assert abs(b - ORACLE.b(r, th)) <= 1e-7


def test_ab_corollary_family():
    # parameter-independent measurement: a = 0, b = 1
    ctx = standard_ctx()
    fam = uniform_diagonal_family(ctx.center)
    a, b = ab_coefficients(ctx, fam)
    assert abs(a) <= 1e-14
    assert abs(b - 1.0) <= 1e-14


# ----------------------------------------------------------------- bound C
def test_bound_C_reference_point():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    got = bound_Cmax(ctx, fam)["C"]
    assert abs(got - ORACLE.bound_C(0.5, PI / 2)) <= 1e-9
    assert abs(got - 2.0787342709) <= 1e-3


def test_bound_C_corollary_is_one():
    ctx = standard_ctx()
    assert abs(bound_Cmax(ctx, uniform_diagonal_family(ctx.center))["C"] - 1.0) <= 1e-12


def test_bound_C_small_r_approaches_ab_square():
    ctx = standard_ctx(r=1e-3)
    fam = gaussian_sharp_family(ctx)
    a, b = ab_coefficients(ctx, fam)
    assert abs(bound_Cmax(ctx, fam)["C"] - (a + b) ** 2) <= 1e-8


# --------------------------------------------------------------- bound Cmax
def test_cmax_half_window_moments():
    ctx = standard_ctx()
    breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
    assert abs(breakdown["I2"] - ORACLE.abs_moment / 2.0) <= 1e-10
    assert abs(breakdown["I1"] + breakdown["I2"]) <= 1e-10
    assert abs(breakdown["h3r"] - h3_amplitude(0.5)) <= 1e-12
    assert breakdown["sign_conditions_ok"]
    assert breakdown["c_nonneg"]


def test_cmax_equals_C_for_saturating_family():
    for r in (0.1, 0.5, 0.9):
        ctx = standard_ctx(r=r)
        breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
        assert abs(breakdown["C"] - breakdown["C_max"]) <= 1e-9


def test_cmax_high_purity_point():
    ctx = standard_ctx(r=0.9)
    breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
    oracle = (ORACLE.b(0.9, PI / 2) + 2.0 * h3_amplitude(0.9) * ORACLE.abs_moment) ** 2
    assert abs(breakdown["C_max"] - oracle) <= 1e-9
    assert abs(oracle - 5.4338) <= 5e-3


def test_cmax_flags_sign_violation():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, offdiag_scale=-0.6)
    breakdown = bound_Cmax(ctx, fam)
    assert not breakdown["sign_conditions_ok"]


def test_cmax_sign_check_warns_nothing_where_an_eigenvalue_square_overflows():
    # |x12| ~ 1e154 squares past the float range in the shared scan, which
    # C_max does not report; the RuntimeWarning filter would raise
    ctx = standard_ctx()
    x = np.linspace(ctx.center - PI, ctx.center + PI, 301)
    big = 3e154
    fam = tabulated_family(x, np.full_like(x, big), 0.5 * big * np.sin(x),
                           0.5 * big * np.sign(ctx.center - x))
    # y12 has the sign of mu - phi_hat, and cos(phi) < 0
    assert not bound_Cmax(ctx, fam)["sign_conditions_ok"]


@pytest.mark.parametrize("r", [0.3, 0.8])
@pytest.mark.parametrize(
    "build, expected",
    [
        (gaussian_sharp_family, True),
        (lambda ctx: tapered_sharp_family(ctx, offdiag_scale=-0.5), False),
        (lambda ctx: tapered_sharp_family(ctx, offdiag_scale=0.5), True),
    ],
)
def test_cmax_sign_conditions_match_validate_povm(build, expected, r):
    ctx = standard_ctx(r=r, eps=0.1)
    fam = build(ctx)
    expected_ok = validate_povm(fam, ctx).sign_conditions_ok
    assert expected_ok is expected
    assert bound_Cmax(ctx, fam)["sign_conditions_ok"] is expected_ok


def test_cmax_breakdown_serializes():
    ctx = standard_ctx()
    data = bound_Cmax(ctx, gaussian_sharp_family(ctx))
    assert list(data) == ["a", "b", "c", "I1", "I2", "h3r", "C", "C_max",
                          "sign_conditions_ok", "c_nonneg"]
    json.dumps(data)


# ------------------------------------------------------- the bias decomposition
# B_max = C_max / g_new splits as (dm + (a + beta) / sqrt(kappa))^2 / g_SLD, with
# dm = r sin(theta) (I2 - I1) the slope of E[phi_hat] in phi, beta = b - dm
# the moving-window boundary term, and sqrt(kappa) = 3K/(4 r^3) = 1 + 2 h3/r
# the square root of g_new / g_SLD; for a = 0 and beta = 0 the paper's bound is
# the SLD Cramer-Rao bound dm^2 / g_SLD of an estimator with this bias.
def _bias_parts(ctx, family):
    """(bound_Cmax's dict, dm, beta, sqrt(kappa)) of family at ctx."""
    breakdown = bound_Cmax(ctx, family)
    r, st = ctx.state.r, math.sin(ctx.state.theta)
    dm = r * st * (breakdown["I2"] - breakdown["I1"])
    return breakdown, dm, breakdown["b"] - dm, 3.0 * coeff_k(r) / (4.0 * r ** 3)


def test_maximized_bound_is_the_bias_decomposition():
    rng = np.random.default_rng(20261020)
    builds = (lambda ctx, sigma: gaussian_sharp_family(ctx, sigma=sigma),
              lambda ctx, sigma: tapered_sharp_family(ctx, sigma=sigma, taper_power=2),
              lambda ctx, sigma: tapered_sharp_family(ctx, sigma=sigma, offdiag_scale=-0.6))
    for case in range(300):
        # r log-spaced toward both edges of the working range
        t = 10.0 ** rng.uniform(math.log10(R_MIN), math.log10(0.5))
        r = min(max(t if case % 2 else 1.0 - t, R_MIN), R_MAX)
        theta = rng.uniform(0.2, PI - 0.2)
        phi = rng.uniform(-1.3, 1.3) + PI * rng.integers(2)
        eps, sigma = rng.uniform(-0.5, 0.5), 10.0 ** rng.uniform(math.log10(0.3), math.log10(20.0))
        state = QubitState(r, theta, phi)
        ctx = EstimationContext(state, eps=eps)
        breakdown, dm, beta, sqrt_kappa = _bias_parts(ctx, builds[case % 3](ctx, sigma))
        a = breakdown["a"]
        b_max = breakdown["C_max"] / new_metric(state)[2, 2]
        decomposed = (dm + (a + beta) / sqrt_kappa) ** 2 / sld_metric(state)[2, 2]
        assert abs(b_max - decomposed) <= 1e-12 * b_max, (case, b_max, decomposed)
        assert abs(sqrt_kappa - (1.0 + 2.0 * breakdown["h3r"] / r)) <= 1e-14 * sqrt_kappa, case
        assert abs(a) <= 1e-14, (case, a)


@pytest.mark.parametrize("build", [gaussian_sharp_family, tapered_sharp_family,
                                   lambda ctx: tapered_sharp_family(ctx, taper_power=3)],
                         ids=("gaussian", "tapered", "tapered-k3"))
@pytest.mark.parametrize("r", [0.3, 1e-3])
def test_bias_slope_is_the_phi_derivative_of_the_mean(build, r):
    # with the family held fixed, at offdiag_scale = 1 only: at scale s the
    # difference quotient reads s dm at eps = 0
    h, phi = 1e-4, 2.0
    for theta, eps in itertools.product((1.0, PI / 2, 2.5), (0.0, 0.3)):
        ctx = EstimationContext(QubitState(r, theta, phi), eps=eps)
        family = build(ctx)
        mean_plus, mean_minus = (estimator_moments(EstimationContext(QubitState(r, theta, phi + d)),
                                                   family)[0] for d in (h, -h))
        dm = _bias_parts(ctx, family)[1]
        assert abs((mean_plus - mean_minus) / (2.0 * h) - dm) <= 2e-8 * abs(dm), (theta, eps)


# ----------------------------------------------------------- general theorem
def test_theorem_reduces_to_scalar_bound():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    te = theorem_general(ctx, fam)
    assert abs(te["rhs"] - bound_Cmax(ctx, fam)["C"]) <= 1e-10
    assert list(te) == ["lhs", "rhs", "bracket"]


def test_theorem_lhs_is_variance_times_metric():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    te = theorem_general(ctx, fam)
    v_oracle = ORACLE.variance
    g_oracle = new_metric_phiphi_oracle(0.5, PI / 2)
    assert abs(te["lhs"] - v_oracle * g_oracle) <= 1e-9
    assert abs(te["lhs"] - 0.7909) <= 1e-3


def test_theorem_with_general_weights():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    z = np.array([0.2, -0.4, 1.0])
    te = theorem_general(ctx, fam, Z=z)
    g = new_metric(ctx.state)
    assert abs(te["lhs"] - estimator_moments(ctx, fam)[1] * float(z @ g @ z)) <= 1e-9
    assert isinstance(te["bracket"], float)


def test_theorem_rejects_biased_setup():
    # family centered away from phi + eps fails the unbiasedness precheck
    ctx_built = standard_ctx(eps=0.4)
    fam = gaussian_sharp_family(ctx_built)
    ctx_eval = standard_ctx(eps=0.0)
    with pytest.raises(DomainError, match="unbiased"):
        theorem_general(ctx_eval, fam)


def test_bound_problem_validation():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    # the weights are checked before any integral
    with pytest.raises(ValueError, match="^Y and Z must not both be zero$"):
        theorem_general(ctx, fam, Y=np.zeros(3), Z=np.zeros(3))
    with pytest.raises(ValueError, match="^Y must be a finite 3-vector$"):
        theorem_general(ctx, fam, Y=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="^Z must be a finite 3-vector$"):
        theorem_general(standard_ctx(eps=0.4), fam, Z=[0.0, math.nan, 1.0])


# ----------------------------------------------------------------- the audit
def test_audit_reference_point():
    ctx = standard_ctx()
    rep = audit_derivation(ctx, gaussian_sharp_family(ctx))
    # integration-by-parts oracle: the residual equals minus the boundary term
    assert abs(rep["fixed_window_residual"] + rep["boundary_term"]) <= 1e-10
    assert abs(rep["boundary_term"] - ORACLE.boundary_term) <= 1e-12
    assert abs(rep["cross_term_real"] - ORACLE.cross_term(0.5, PI / 2)) <= 1e-9
    assert abs(rep["cross_term_real"] - 0.7568) <= 1e-3
    assert rep["imag_residual"] == 0.0
    assert rep["quadratic_form_residual"] <= 1e-9
    # chain: outer inequality always holds; inner one is broken by the boundary
    assert rep["slack_outer"] >= -1e-10
    assert rep["slack_inner"] < 0.0
    assert rep["vg_minus_C"] < 0.0


def test_audit_boundary_vanishing_family_restores_identity():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, taper_power=2, offdiag_scale=0.8)
    rep = audit_derivation(ctx, fam)
    assert abs(rep["boundary_term"]) <= 1e-12
    assert abs(rep["fixed_window_residual"]) <= 1e-9
    # with no boundary term the whole chain holds
    assert rep["slack_outer"] >= -1e-10
    assert rep["slack_inner"] >= -1e-9
    assert rep["vg_minus_C"] >= -1e-9


def test_audit_schwarz_chain_on_grid():
    for r in (0.2, 0.5, 0.8):
        for ph in (0.3, 3 * PI / 4):
            for th in (PI / 6, PI / 2):
                ctx = standard_ctx(r=r, theta=th, phi=ph)
                for fam in (
                    gaussian_sharp_family(ctx),
                    tapered_sharp_family(ctx, sigma=2.8, taper_power=1, offdiag_scale=0.5),
                ):
                    rep = audit_derivation(ctx, fam)
                    assert rep["slack_outer"] >= -1e-10
                    assert rep["schwarz_lhs"] >= rep["schwarz_mid"] >= -1e-10
                    assert rep["imag_residual"] == 0.0


def test_audit_serializes():
    ctx = standard_ctx()
    data = audit_derivation(ctx, gaussian_sharp_family(ctx))
    for key in ("fixed_window_residual", "boundary_term", "imag_residual",
                "schwarz_lhs", "schwarz_mid", "schwarz_rhs",
                "slack_outer", "slack_inner", "vg_minus_C"):
        assert key in data
    json.dumps(data)


# ------------------------------------------ the closed and operator brackets
def test_closed_and_operator_brackets_agree():
    # bound_Cmax's closed-form C against the operator route's |bracket|^2, and
    # theorem_general at Y = Z = e3 against the audit bit for bit, across the
    # working domain at eps != 0
    rng = np.random.default_rng(1210)
    for r in np.geomspace(R_MIN, R_MAX, 23):
        theta = rng.uniform(0.1, PI - 0.1)
        phi = rng.uniform(-1.4, 1.4) + rng.choice([0.0, PI])
        eps = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        sigma = rng.uniform(0.5, 5.0)
        ctx = standard_ctx(r=r, theta=theta, phi=phi, eps=eps)
        tapered = tapered_sharp_family(ctx, sigma=sigma, taper_power=int(rng.integers(1, 4)),
                                       offdiag_scale=rng.uniform(-1.0, 1.0))
        for fam in (gaussian_sharp_family(ctx, sigma=sigma), tapered):
            rep = audit_derivation(ctx, fam)
            assert abs(bound_Cmax(ctx, fam)["C"] - rep["schwarz_rhs"]) <= 1e-13 * rep["schwarz_rhs"]
            te = theorem_general(ctx, fam)
            assert te["rhs"] == rep["schwarz_rhs"]
            assert te["lhs"] - te["rhs"] == rep["vg_minus_C"]


def _counted(monkeypatch, modules, name):
    """Calls of `name` through each of `modules`, recorded in a list."""
    calls = []
    for module in modules:
        original = getattr(module, name)

        def counted(*args, _original=original):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_audit_and_theorem_share_one_bracket_helper(monkeypatch):
    brackets = _counted(monkeypatch, [bounds], "_operator_bracket")
    rhos = _counted(monkeypatch, [bounds, measurement], "density_matrix")
    ctx = standard_ctx(eps=0.1)
    fam = gaussian_sharp_family(ctx)
    audit_derivation(ctx, fam)
    assert (len(brackets), len(rhos)) == (1, 1)
    theorem_general(ctx, fam)
    assert len(brackets) == 2


# ----------------------------------------------------------------- the sweep
def test_sweep_reference_row():
    rows = bounds_sweep([0.5])
    row = rows[0]
    assert row.error is None
    assert abs(row.B_SLD - 4.0) <= 1e-9
    assert abs(row.B_RLD - 3.0) <= 1e-9
    assert abs(row.B_Fisher - 4.0) <= 1e-6
    oracle_bmax = ORACLE.bound_C(0.5, PI / 2) / new_metric_phiphi_oracle(0.5, PI / 2)
    assert abs(row.B_max - oracle_bmax) <= 1e-8
    assert abs(row.B_max - 7.453) <= 1e-2
    assert abs(row.v - ORACLE.variance) <= 1e-9


def test_sweep_rld_bound_is_exact_to_rounding_near_the_pure_state_edge():
    # B_RLD = (1 - r)(1 + r) / r^2 at theta = pi/2, where 1 - r*r would lose
    # the last bits of r*r
    rows = bounds_sweep([0.999, 0.99999, 0.9999985, R_MAX], theta=PI / 2)
    for row in rows:
        assert row.error is None, row
        with mpmath.workdps(50):
            r = mpmath.mpf(row.r)
            want = (1 - r) * (1 + r) / (r * r)
            assert abs(row.B_RLD - want) <= 1e-15 * want, row


def test_sweep_ratio_strictly_increasing():
    rows = bounds_sweep(GRID_R)
    ratios = [row.B_max / row.B_SLD for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_slack_column_is_negative_for_gaussian_family():
    # the paper-literal bound exceeds v*g once the boundary term is dropped
    rows = bounds_sweep(GRID_R)
    assert all(row.vg_minus_C < 0 for row in rows)


def test_sweep_marks_failed_rows_and_continues():
    rows = bounds_sweep([0.5, 1.5, 0.7])
    assert rows[0].error is None
    assert rows[1].error is not None
    assert math.isnan(rows[1].B_max)
    assert rows[2].error is None


def test_sweep_builds_one_grid_per_sweep(monkeypatch):
    calls = []
    original = quadrature.nodes_1d

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (quadrature, measurement, metrics, bounds):
        if getattr(module, "nodes_1d", None) is original:
            monkeypatch.setattr(module, "nodes_1d", counted)
    rows = bounds_sweep(np.linspace(0.05, 0.95, 16))
    assert all(row.error is None for row in rows)
    assert len(calls) == 1


def test_sweep_rows_make_no_node_pass(monkeypatch):
    # a row reads its Fisher entry as r^2 sin^2(theta) m0, so every node pass
    # belongs to the fixed inputs, however many rows there are
    calls = [_counted(monkeypatch, [measurement.FamilyGrid], "integrate"),
             _counted(monkeypatch, [measurement.FamilyGrid], "trace"),
             _counted(monkeypatch, [metrics], "fisher_integral")]
    counts = []
    for steps in (2, 200):
        rows = bounds_sweep(np.linspace(0.02, 0.98, steps))
        assert all(row.error is None for row in rows)
        counts.append([len(c) for c in calls])
        for c in calls:
            c.clear()
    assert counts[0] == counts[1], counts


def test_sweep_row_sums_the_atanh_tail_once(monkeypatch):
    # K, for the phi-phi entries, and h3 share one U(r)
    tails = _counted(monkeypatch, [derivatives, bounds], "atanh_tail")
    rows = bounds_sweep(np.linspace(0.02, 0.98, 16))
    assert all(row.error is None for row in rows)
    assert [args[0] for args in tails] == [row.r for row in rows]


def test_sweep_validates_its_fixed_inputs_once(monkeypatch):
    # only r changes between rows: one context and one family per sweep
    contexts, families = [], []
    post_init = measurement.EstimationContext.__post_init__

    def counted_post_init(self):
        contexts.append(self)
        post_init(self)

    def counted_family(*args, **kwargs):
        families.append(args)
        return gaussian_sharp_family(*args, **kwargs)

    monkeypatch.setattr(measurement.EstimationContext, "__post_init__", counted_post_init)
    monkeypatch.setattr(bounds, "gaussian_sharp_family", counted_family)
    rows = bounds_sweep(np.linspace(0.02, 0.98, 200))
    assert all(row.error is None for row in rows)
    assert (len(contexts), len(families)) == (1, 1)


def _sweep_row_by_row(r_values, theta, phi, eps, sigma, spec):
    """bounds_sweep as one call of each public function per row, with the
    family rebuilt on every row.  The phase-space metric's range check runs
    right after the grid, ahead of coeff_h3r, so r = 1 names it too."""
    rows = []
    for r in r_values:
        r = float(r)
        try:
            state = QubitState(r, theta, phi)
            ctx = EstimationContext(state, eps=eps)
            family = dataclasses.replace(gaussian_sharp_family(ctx, sigma=sigma), spec=spec)
            family.grid()
            g = float(new_metric(state)[2, 2])
            breakdown = bound_Cmax(ctx, family)
            _, variance = estimator_moments(ctx, family)
            fisher = measurement_fisher(state, family)
            rows.append(
                SweepRow(
                    r=r,
                    B_max=breakdown["C_max"] / g,
                    B_SLD=1.0 / float(sld_metric(state)[2, 2]),
                    B_RLD=1.0 / float(rld_metric(state)[2, 2]),
                    B_Fisher=1.0 / fisher,
                    B_Husimi=1.0 / float(husimi_classical_metric(state)[2, 2]),
                    v=variance,
                    vg_minus_C=variance * g - breakdown["C"],
                )
            )
        except (DomainError, ValueError) as exc:
            rows.append(SweepRow(r=r, error=str(exc)))
    return rows


SWEEP_EDGES = [0.0, 1e-7, R_MIN, 0.5, R_MAX, 0.9999999, 1.0, 1.5, -0.1, math.nan]


def test_sweep_matches_row_by_row_oracle():
    # B_Fisher is r^2 sin^2(theta) m0 in the sweep and a node pass in the
    # oracle, equal to rounding; every other field matches by repr
    rng = np.random.default_rng(20261018)
    grids = (np.linspace(0.02, 0.98, 16), np.array([*SWEEP_EDGES, 0.05, 0.3, 0.95]))
    for case in range(42):
        theta = float(rng.uniform(0.05, PI - 0.05))
        phi = float(rng.uniform(-7.0, 7.0))
        eps = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.5, 5.0))
        spec = QuadSpec(8, 6) if case % 4 == 0 else QuadSpec()
        for r_values in grids:
            args = (r_values, theta, phi, eps, sigma, spec)
            got, want = bounds_sweep(*args), _sweep_row_by_row(*args)
            assert len(got) == len(want), args
            for row, ref in zip(got, want):
                assert repr(dataclasses.replace(row, B_Fisher=0.0)) == repr(
                    dataclasses.replace(ref, B_Fisher=0.0)), args
                assert (math.isnan(row.B_Fisher) and math.isnan(ref.B_Fisher)
                        or abs(row.B_Fisher - ref.B_Fisher) <= 2e-15 * abs(ref.B_Fisher)), (row, ref)


def test_sweep_rows_outside_the_working_range_name_it():
    rows = bounds_sweep([0.0, 1e-7, 0.9999999, 1.0, 1.5, math.nan])
    working = "new_metric requires r in [1e-06, 0.999999], got r = "
    assert [row.error for row in rows] == [
        working + "0.0",
        working + "1e-07",
        working + "0.9999999",
        working + "1.0",
        "r must lie in [0, 1], got 1.5",
        "r must be finite, got nan",
    ]


def test_sweep_rows_at_sin_theta_zero_name_it():
    # theta = 0 zeroes every phi-phi entry, and so does a theta whose
    # r^2 sin(theta)^2 underflows; a subnormal entry (1e-160, 1e-154) fails
    # too, as 1/g overflows or loses digits; rows outside the working range
    # keep their own errors
    for theta in (0.0, -0.0, 1e-154, 1e-160, 1e-170, 1e-300, 5e-324):
        rows = bounds_sweep([0.0, 0.5, 0.9, 1.5], theta=theta)
        assert rows[0].error.startswith("new_metric requires r in")
        for row in rows[1:3]:
            assert row.error.startswith("the phi-phi entries vanish"), row
            assert "underflows below the smallest normal float" in row.error, row
            assert math.isnan(row.B_max) and math.isnan(row.B_SLD)
        assert rows[3].error == "r must lie in [0, 1], got 1.5"
    # a normal entry, however small, gives the true bound
    for theta in (PI, 1e-150):
        assert all(row.error is None for row in bounds_sweep([0.5, 0.9], theta=theta))


def test_sweep_family_error_reaches_every_valid_row():
    # invalid states keep their own errors; every valid row, r = 0 included,
    # carries the one error of the sweep's fixed inputs
    r_values = [1.5, 0.5, math.nan, 0.0, 0.7, -0.1]
    state_errors = {
        0: "r must lie in [0, 1], got 1.5",
        2: "r must be finite, got nan",
        5: "r must lie in [0, 1], got -0.1",
    }
    for kwargs, message in (({"sigma": -1.0}, "sigma must be positive"),
                            ({"sigma": math.inf}, "sigma = inf is too large"),
                            ({"sigma": 1e308}, "sigma = 1e+308 is too large"),
                            ({"eps": 1e300}, "eps = 1e+300 collapses the window"),
                            ({"phi": PI / 2}, "construction angle has cos(phi) ~ 0")):
        rows = bounds_sweep(r_values, **kwargs)
        assert all(math.isnan(row.B_max) for row in rows)
        for i, row in enumerate(rows):
            assert row.error == state_errors.get(i, rows[1].error), (kwargs, i)
        assert rows[1].error.startswith(message)


def test_sweep_row_dict_columns():
    row = bounds_sweep([0.4])[0].as_dict()
    for key in ("r", "B_max", "B_SLD", "B_RLD", "B_Fisher", "B_Husimi", "v", "vg_minus_C"):
        assert key in row


# --------------------------------------------- validated perturbations sanity
def test_randomized_tapered_families_validate():
    rng = np.random.default_rng(20260810)
    ctx = standard_ctx()
    for _ in range(3):
        fam = tapered_sharp_family(
            ctx,
            sigma=float(rng.uniform(2.5, 3.5)),
            taper_power=int(rng.integers(1, 4)),
            offdiag_scale=float(rng.uniform(0.3, 0.95)),
        )
        assert validate_povm(fam, ctx).all_ok
