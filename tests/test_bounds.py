import dataclasses
import math
import re

import numpy as np
import pytest

from qbound import bounds, measurement, metrics, quadrature
from qbound.bounds import (
    BoundProblem,
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
from qbound.derivatives import R_MAX, R_MIN
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

    def d_x11(u):
        u = np.asarray(u, dtype=float)
        return np.where(u == bad, np.nan, base.d_x11(u))

    with pytest.raises(QuadratureError, match=re.escape(repr(bad))):
        ab_coefficients(ctx, dataclasses.replace(base, d_x11=d_x11))


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
    got = bound_Cmax(ctx, fam).C
    assert abs(got - ORACLE.bound_C(0.5, PI / 2)) <= 1e-9
    assert abs(got - 2.0787342709) <= 1e-3


def test_bound_C_corollary_is_one():
    ctx = standard_ctx()
    assert abs(bound_Cmax(ctx, uniform_diagonal_family(ctx.center)).C - 1.0) <= 1e-12


def test_bound_C_small_r_approaches_ab_square():
    ctx = standard_ctx(r=1e-3)
    fam = gaussian_sharp_family(ctx)
    a, b = ab_coefficients(ctx, fam)
    assert abs(bound_Cmax(ctx, fam).C - (a + b) ** 2) <= 1e-8


# --------------------------------------------------------------- bound Cmax
def test_cmax_half_window_moments():
    ctx = standard_ctx()
    breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
    assert abs(breakdown.I2 - ORACLE.abs_moment / 2.0) <= 1e-10
    assert abs(breakdown.I1 + breakdown.I2) <= 1e-10
    assert abs(breakdown.h3r - h3_amplitude(0.5)) <= 1e-12
    assert breakdown.sign_conditions_ok
    assert breakdown.c_nonneg


def test_cmax_equals_C_for_saturating_family():
    for r in (0.1, 0.5, 0.9):
        ctx = standard_ctx(r=r)
        breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
        assert abs(breakdown.C - breakdown.C_max) <= 1e-9


def test_cmax_high_purity_point():
    ctx = standard_ctx(r=0.9)
    breakdown = bound_Cmax(ctx, gaussian_sharp_family(ctx))
    oracle = (ORACLE.b(0.9, PI / 2) + 2.0 * h3_amplitude(0.9) * ORACLE.abs_moment) ** 2
    assert abs(breakdown.C_max - oracle) <= 1e-9
    assert abs(oracle - 5.4338) <= 5e-3


def test_cmax_flags_sign_violation():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, offdiag_scale=-0.6)
    breakdown = bound_Cmax(ctx, fam)
    assert not breakdown.sign_conditions_ok


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
    assert bound_Cmax(ctx, fam).sign_conditions_ok is expected_ok


def test_cmax_breakdown_serializes():
    ctx = standard_ctx()
    data = bound_Cmax(ctx, gaussian_sharp_family(ctx)).as_dict()
    for key in ("a", "b", "c", "I1", "I2", "h3r", "C", "C_max"):
        assert key in data


# ----------------------------------------------------------- general theorem
def test_theorem_reduces_to_scalar_bound():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    te = theorem_general(BoundProblem(ctx, fam))
    assert abs(te.rhs - bound_Cmax(ctx, fam).C) <= 1e-10
    assert te.bracket_imag <= 1e-10


def test_theorem_lhs_is_variance_times_metric():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    te = theorem_general(BoundProblem(ctx, fam))
    v_oracle = ORACLE.variance
    g_oracle = new_metric_phiphi_oracle(0.5, PI / 2)
    assert abs(te.lhs - v_oracle * g_oracle) <= 1e-9
    assert abs(te.lhs - 0.7909) <= 1e-3


def test_theorem_with_general_weights():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    z = np.array([0.2, -0.4, 1.0])
    te = theorem_general(BoundProblem(ctx, fam, Z=z))
    g = new_metric(ctx.state)
    assert abs(te.lhs - estimator_moments(ctx, fam)[1] * float(z @ g @ z)) <= 1e-9
    assert te.bracket_imag <= 1e-10


def test_theorem_rejects_biased_setup():
    # family centered away from phi + eps fails the unbiasedness precheck
    ctx_built = standard_ctx(eps=0.4)
    fam = gaussian_sharp_family(ctx_built)
    ctx_eval = standard_ctx(eps=0.0)
    with pytest.raises(DomainError, match="unbiased"):
        theorem_general(BoundProblem(ctx_eval, fam))


def test_bound_problem_validation():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    with pytest.raises(ValueError):
        BoundProblem(ctx, fam, Y=np.zeros(3), Z=np.zeros(3))
    with pytest.raises(ValueError):
        BoundProblem(ctx, fam, Y=np.array([1.0, 2.0]))


# ----------------------------------------------------------------- the audit
def test_audit_reference_point():
    ctx = standard_ctx()
    rep = audit_derivation(ctx, gaussian_sharp_family(ctx))
    # integration-by-parts oracle: the residual equals minus the boundary term
    assert abs(rep.fixed_window_residual + rep.boundary_term) <= 1e-10
    assert abs(rep.boundary_term - ORACLE.boundary_term) <= 1e-12
    assert abs(rep.cross_term_real - ORACLE.cross_term(0.5, PI / 2)) <= 1e-9
    assert abs(rep.cross_term_real - 0.7568) <= 1e-3
    assert rep.imag_residual <= 1e-10
    assert rep.quadratic_form_residual <= 1e-9
    # chain: outer inequality always holds; inner one is broken by the boundary
    assert rep.slack_outer >= -1e-10
    assert rep.slack_inner < 0.0
    assert rep.vg_minus_C < 0.0


def test_audit_boundary_vanishing_family_restores_identity():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, taper_power=2, offdiag_scale=0.8)
    rep = audit_derivation(ctx, fam)
    assert abs(rep.boundary_term) <= 1e-12
    assert abs(rep.fixed_window_residual) <= 1e-9
    # with no boundary term the whole chain holds
    assert rep.slack_outer >= -1e-10
    assert rep.slack_inner >= -1e-9
    assert rep.vg_minus_C >= -1e-9


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
                    assert rep.slack_outer >= -1e-10
                    assert rep.schwarz_lhs >= rep.schwarz_mid >= -1e-10
                    assert rep.imag_residual <= 1e-10


def test_audit_serializes():
    ctx = standard_ctx()
    data = audit_derivation(ctx, gaussian_sharp_family(ctx)).as_dict()
    for key in ("fixed_window_residual", "boundary_term", "imag_residual",
                "schwarz_lhs", "schwarz_mid", "schwarz_rhs",
                "slack_outer", "slack_inner", "vg_minus_C"):
        assert key in data


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
            family = gaussian_sharp_family(ctx, sigma=sigma)
            family.grid(spec)
            g = float(new_metric(state)[2, 2])
            breakdown = bound_Cmax(ctx, family, spec)
            _, variance = estimator_moments(ctx, family, spec)
            fisher = measurement_fisher(state, family, spec)
            rows.append(
                SweepRow(
                    r=r,
                    B_max=breakdown.C_max / g,
                    B_SLD=1.0 / float(sld_metric(state)[2, 2]),
                    B_RLD=1.0 / float(rld_metric(state)[2, 2]),
                    B_Fisher=1.0 / fisher,
                    B_Husimi=1.0 / float(husimi_classical_metric(state)[2, 2]),
                    v=variance,
                    vg_minus_C=variance * g - breakdown.C,
                )
            )
        except (DomainError, ValueError) as exc:
            rows.append(SweepRow(r=r, error=str(exc)))
    return rows


SWEEP_EDGES = [0.0, 1e-7, R_MIN, 0.5, R_MAX, 0.9999999, 1.0, 1.5, -0.1, math.nan]


def test_sweep_matches_row_by_row_oracle():
    rng = np.random.default_rng(20261018)
    grids = (np.linspace(0.02, 0.98, 16), np.array([*SWEEP_EDGES, 0.05, 0.3, 0.95]))
    for case in range(42):
        theta = float(rng.uniform(0.05, PI - 0.05))
        phi = float(rng.uniform(-7.0, 7.0))
        eps = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.5, 5.0))
        spec = QuadSpec(8, 6) if case % 4 == 0 else None
        for r_values in grids:
            args = (r_values, theta, phi, eps, sigma, spec)
            assert repr(bounds_sweep(*args)) == repr(_sweep_row_by_row(*args)), args


def test_sweep_rows_outside_the_working_range_name_it():
    rows = bounds_sweep([0.0, 1e-7, 0.9999999, 1.0, 1.5, math.nan])
    working = "new_metric requires r in [1e-06, 0.999999], got r = "
    assert [row.error for row in rows] == [
        working + "0.0",
        working + "1e-07",
        working + "0.9999999",
        working + "1.0",
        "r must lie in [0, 1], got 1.5",
        "state parameters must be finite",
    ]


def test_sweep_rows_at_sin_theta_zero_name_it():
    # theta = 0 zeroes every phi-phi entry; rows outside the working range
    # keep their own errors
    for theta in (0.0, -0.0):
        rows = bounds_sweep([0.0, 0.5, 0.9, 1.5], theta=theta)
        assert rows[0].error.startswith("new_metric requires r in")
        for row in rows[1:3]:
            assert row.error.startswith("sin(theta) = 0"), row
            assert math.isnan(row.B_max) and math.isnan(row.B_SLD)
        assert rows[3].error == "r must lie in [0, 1], got 1.5"
    assert all(row.error is None for row in bounds_sweep([0.5, 0.9], theta=PI))


def test_sweep_family_error_reaches_every_valid_row():
    # invalid states keep their own errors; every valid row, r = 0 included,
    # carries the family's
    r_values = [1.5, 0.5, math.nan, 0.0, 0.7, -0.1]
    state_errors = {
        0: "r must lie in [0, 1], got 1.5",
        2: "state parameters must be finite",
        5: "r must lie in [0, 1], got -0.1",
    }
    for sigma, message in ((-1.0, "sigma must be positive"),
                           (math.inf, "integrand is not finite at abscissa")):
        rows = bounds_sweep(r_values, sigma=sigma)
        assert all(math.isnan(row.B_max) for row in rows)
        for i, row in enumerate(rows):
            assert row.error == state_errors.get(i, rows[1].error), (sigma, i)
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
