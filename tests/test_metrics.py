import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qbound.bounds import bounds_sweep, metric_report
from qbound import metrics
from qbound import derivatives
from qbound.derivatives import R_MAX, R_MIN, coeff_k, coeff_k_tilde, deviation_h, new_log_derivative
from qbound.measurement import EstimationContext, FamilyGrid, gaussian_sharp_family, tapered_sharp_family
from qbound.metrics import (
    MONOTONE_SPECS,
    fisher_integral,
    husimi_classical_metric,
    measurement_fisher,
    monotone_metric,
    new_metric,
    new_metric_trace,
    require_braunstein_caves,
    rld_metric,
    sld_metric,
    sld_metric_trace,
)
from qbound.quadrature import QuadSpec, sphere_integrate
from qbound.qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

from conftest import PI, grid_36, k_coeff, k_tilde_coeff, new_metric_phiphi_oracle


# ------------------------------------------------------------ one atanh tail
def _two_tail_deviation_h_r(state):
    # c_iso and c_dir each summing their own U(r)
    r = state.r
    c_iso = coeff_k_tilde(r) / (2.0 * r * r)
    c_dir = r * r * (1.0 / 3.0 - (3.0 - r * r) * derivatives.atanh_tail(r, "deviation_h")) / 2.0
    return c_iso * np.eye(2) + 2.0 * c_dir * d_rho(state, ParamIndex.R)


def _two_tail_new_metric(state):
    r = state.r
    radial = (9.0 - 5.0 * r * r) * coeff_k_tilde(r) ** 2 / (4.0 * r ** 6)
    return metrics._angular_block(r, state.theta, radial, metrics._new_angular(coeff_k(r), r))


def _two_tail_husimi_metric(state):
    r = state.r
    return metrics._angular_block(r, state.theta, -coeff_k_tilde(r) / (2.0 * r ** 3),
                                  metrics._husimi_angular(coeff_k(r), r))


@pytest.mark.parametrize("closed, two_tail", [
    (lambda s: deviation_h(s, ParamIndex.R), _two_tail_deviation_h_r),
    (new_metric, _two_tail_new_metric),
    (husimi_classical_metric, _two_tail_husimi_metric),
], ids=["deviation_h_r", "new_metric", "husimi_classical_metric"])
def test_closed_forms_sum_one_atanh_tail(closed, two_tail, monkeypatch):
    rng = np.random.default_rng(5)
    rs = np.concatenate([[R_MIN, R_MAX], rng.uniform(R_MIN, R_MAX, 48)])
    states = [QubitState(float(r), float(t), float(p))
              for r, t, p in zip(rs, rng.uniform(0.0, PI, 50), rng.uniform(0.0, 2 * PI, 50))]
    expected = [two_tail(s) for s in states]
    calls = []
    original = derivatives.atanh_tail

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (derivatives, metrics):
        monkeypatch.setattr(module, "atanh_tail", counted)
    for state, want in zip(states, expected):
        calls.clear()
        got = closed(state)
        assert len(calls) == 1, (state, calls)
        assert np.array_equal(got, want), state


# ------------------------------------------------------------------ new metric
def test_new_metric_phiphi_reference_point():
    got = new_metric(QubitState(0.5, PI / 2, 3 * PI / 4))[2, 2]
    oracle = new_metric_phiphi_oracle(0.5, PI / 2)
    assert abs(oracle - 0.278913) <= 1e-5
    assert abs(got - oracle) <= 1e-12


def test_new_metric_trace_equals_closed():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        diff = new_metric_trace(s) - new_metric(s)
        assert np.max(np.abs(diff)) <= 1e-8


def test_new_metric_off_diagonals_vanish():
    for r, th, ph in grid_36():
        g = new_metric_trace(QubitState(r, th, ph))
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) <= 1e-10


def test_new_metric_radial_limit():
    g = new_metric(QubitState(0.01, 1.0, 1.0))
    assert abs(g[0, 0] - 1.0) <= 1e-3


def test_new_metric_phiphi_limit():
    s = QubitState(0.01, PI / 3, 1.0)
    g = new_metric(s)
    assert abs(g[2, 2] / (s.r**2 * math.sin(s.theta) ** 2) - 1.0) <= 1e-3


def test_metrics_positive_semidefinite():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        for g in (new_metric_trace(s), sld_metric(s), rld_metric(s),
                  husimi_classical_metric(s, "quadrature")):
            assert np.max(np.abs(g - g.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) >= -1e-10


# ------------------------------------------------------------- SLD/RLD metrics
def test_sld_metric_closed_form():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        g = sld_metric(s)
        assert abs(g[0, 0] - 1.0 / (1.0 - r * r)) <= 1e-12
        assert abs(g[1, 1] - r * r) <= 1e-12
        assert abs(g[2, 2] - r * r * math.sin(th) ** 2) <= 1e-12
        # eigenbasis-construction cross-check
        assert np.max(np.abs(g - sld_metric_trace(s))) <= 1e-10


def test_rld_metric_closed_form():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        g = rld_metric(s)
        assert abs(g[2, 2] - r * r * math.sin(th) ** 2 / (1.0 - r * r)) <= 1e-12
        # inverse-matrix oracle, every entry
        rho_inv = np.linalg.inv(density_matrix(s))
        for i, ki in enumerate(ParamIndex):
            for j, kj in enumerate(ParamIndex):
                entry = np.trace(d_rho(s, ki) @ rho_inv @ d_rho(s, kj)).real
                assert abs(g[i, j] - entry) <= 1e-12, (i, j)


# 50-digit oracle of the closed forms with c = 1/(1 - r^2): SLD diag(c, r^2,
# r^2 s^2) and RLD diag(c, c r^2, c r^2 s^2), s = sin(theta), and every
# monotone metric's radial coefficient c.  The states are log-spaced toward
# both edges of the working range.
CLOSED_FORM_RTOL = 4e-15
EDGE_R = tuple(map(float, (*np.geomspace(R_MIN, 0.5, 12), *(1.0 - np.geomspace(1.0 - R_MAX, 0.5, 12)))))
EDGE_THETA = (0.05, 0.7, PI / 2, 2.9)


def _mp_closed_forms(r, theta):
    with mpmath.workdps(50):
        r, s2 = mpmath.mpf(r), mpmath.sin(mpmath.mpf(theta)) ** 2
        c = 1 / (1 - r * r)
        return {"sld": (c, r * r, r * r * s2), "rld": (c, c * r * r, c * r * r * s2)}


def _assert_close(got, want, what):
    err = abs((mpmath.mpf(float(got)) - want) / want)
    assert err <= CLOSED_FORM_RTOL, (what, float(err))


def test_sld_rld_and_monotone_radial_match_a_50_digit_oracle_up_to_both_edges():
    for r in EDGE_R:
        for theta in EDGE_THETA:
            want = _mp_closed_forms(r, theta)
            s = QubitState(r, theta, 1.2)
            for name, g in (("sld", sld_metric(s)), ("rld", rld_metric(s))):
                for i in range(3):
                    _assert_close(g[i, i], want[name][i], (name, i, r, theta))
        for name, f in MONOTONE_SPECS.items():
            _assert_close(monotone_metric(f, r)[0], want["sld"][0], (name, r))


def test_sweep_sld_and_rld_bounds_match_a_50_digit_oracle_up_to_both_edges():
    for theta in EDGE_THETA:
        for row in bounds_sweep(EDGE_R, theta=theta):
            assert row.error is None, row
            want = _mp_closed_forms(row.r, theta)
            _assert_close(row.B_SLD, 1 / want["sld"][2], ("B_SLD", row.r, theta))
            _assert_close(row.B_RLD, 1 / want["rld"][2], ("B_RLD", row.r, theta))


def test_phiphi_entries_read_k_once_and_match_the_3x3_forms(monkeypatch):
    calls = []
    coeff_k = metrics.coeff_k
    monkeypatch.setattr(metrics, "coeff_k", lambda r, u=None: calls.append(r) or coeff_k(r, u))
    for r in (R_MIN, 0.3, 0.45, 0.9, R_MAX):
        s = QubitState(r, 1.1, 0.4)
        entries = metrics.phiphi_entries(r, math.sin(s.theta))
        assert calls == [r]
        calls.clear()
        forms = (new_metric(s), sld_metric(s), rld_metric(s), husimi_classical_metric(s))
        assert [e.hex() for e in entries] == [float(g[2, 2]).hex() for g in forms]
        calls.clear()


def test_rld_phiphi_reference_point():
    g = rld_metric(QubitState(0.5, PI / 2, 0.3))
    assert abs(g[2, 2] - 1.0 / 3.0) <= 1e-12


def test_hierarchy_on_grid():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        ctx = EstimationContext(s)
        fam = gaussian_sharp_family(ctx)
        fisher = measurement_fisher(s, fam)
        g_sld = sld_metric(s)[2, 2]
        g_rld = rld_metric(s)[2, 2]
        assert fisher - g_sld <= 1e-9
        assert g_sld - g_rld <= 1e-9


# ------------------------------------------------------------- monotone family
def test_monotone_sld_angular_is_one():
    for r in (0.1, 0.4, 0.7, 0.95):
        radial, angular = monotone_metric(MONOTONE_SPECS["SLD"], r)
        assert abs(radial - 1.0 / (1.0 - r * r)) <= 1e-14
        assert abs(angular - 1.0) <= 1e-14


def test_monotone_rld_matches_rld_metric():
    r = 0.5
    _, angular = monotone_metric(MONOTONE_SPECS["RLD"], r)
    assert abs(angular - 4.0 / 3.0) <= 1e-14
    s = QubitState(r, PI / 2, 1.0)
    assert abs(angular * r * r * math.sin(s.theta) ** 2 - rld_metric(s)[2, 2]) <= 1e-12


def test_monotone_coefficients_unify_at_small_r():
    for f in MONOTONE_SPECS.values():
        _, angular = monotone_metric(f, 1e-6)
        assert abs(angular - 1.0) <= 1e-5


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=st.floats(0.01, 100.0))
def test_monotone_functional_symmetry(t):
    # f(t) = t f(1/t) and f(1) = 1 for every named kind
    for f in MONOTONE_SPECS.values():
        assert abs(f(t) - t * f(1.0 / t)) <= 1e-10 * max(1.0, f(t))
        assert abs(f(1.0) - 1.0) <= 1e-12


# relative tolerance of the proven orderings; the bench's correctness gate uses the same
ORDERING_RTOL = 1e-9


def at_most(a, b):
    return a <= b + ORDERING_RTOL * abs(b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    r=st.floats(R_MIN, R_MAX),
    theta=st.floats(0.05, PI - 0.05),
    phi=st.floats(-PI, PI).filter(lambda p: abs(math.cos(p)) >= 1e-3),
    eps=st.floats(-0.5, 0.5),
    sigma=st.floats(0.05, 100.0),
)
def test_proven_orderings_hold_on_the_default_rule(r, theta, phi, eps, sigma):
    # Braunstein-Caves for the frozen measurement, the Husimi coarse-graining,
    # and SLD <= Kubo-Mori <= RLD among the monotone metrics
    state = QubitState(r, theta, phi)
    sld_phiphi = sld_metric(state)[2, 2]
    family = gaussian_sharp_family(EstimationContext(state, eps=eps), sigma=sigma)
    assert at_most(measurement_fisher(state, family), sld_phiphi)
    assert at_most(husimi_classical_metric(state)[2, 2], sld_phiphi)
    sld, kubo_mori, rld = (monotone_metric(MONOTONE_SPECS[k], r)[1]
                           for k in ("SLD", "KuboMori", "RLD"))
    assert at_most(sld, kubo_mori) and at_most(kubo_mori, rld)


def test_braunstein_caves_check_passes_rounding_and_names_an_excess():
    for fisher, sld in ((0.25, 0.25), (0.25 * (1.0 + 1e-10), 0.25), (0.1, 0.25), (0.0, 0.0)):
        assert require_braunstein_caves(fisher, sld) is None
    for fisher, sld, excess in ((0.25 * (1.0 + 1e-6), 0.25, "1.000e-06"), (1e-300, 0.0, "inf"),
                                (math.nan, 0.25, "nan")):
        with pytest.raises(DomainError, match=rf"^Braunstein-Caves fails: .* by {excess} relative$"):
            require_braunstein_caves(fisher, sld)


def test_kubo_mori_removable_singularity():
    f = MONOTONE_SPECS["KuboMori"]
    for t in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        assert abs(f(t) - 1.0) <= 1e-8
    assert abs(f(1.001) - f(0.999) - 0.001) <= 1e-6  # slope 1/2 on both sides


def test_monotone_domain():
    with pytest.raises(DomainError):
        monotone_metric(MONOTONE_SPECS["SLD"], 0.0)
    with pytest.raises(DomainError):
        monotone_metric(MONOTONE_SPECS["SLD"], 1.0)


# ------------------------------------------------------- Husimi classical metric
def test_husimi_metric_quadrature_vs_closed():
    for r in (0.1, 0.5, 0.9):
        s = QubitState(r, PI / 6, 0.3)
        diff = husimi_classical_metric(s, "quadrature") - husimi_classical_metric(s, "closed")
        assert np.max(np.abs(diff)) <= 1e-8


def test_husimi_metric_quadrature_is_one_sphere_integral(monkeypatch):
    import qbound.metrics as metrics

    calls = []

    def counted(F, *args, **kwargs):
        calls.append(F)
        return sphere_integrate(F, *args, **kwargs)

    monkeypatch.setattr(metrics, "sphere_integrate", counted)
    s = QubitState(0.6, 1.1, 0.4)
    g = husimi_classical_metric(s, "quadrature")
    assert len(calls) == 1
    assert np.array_equal(g, g.T)
    assert np.max(np.abs(g - husimi_classical_metric(s))) <= 1e-12


WORKING_R = sorted({R_MIN, R_MAX, *np.geomspace(1e-6, 0.5, 8), *(1.0 - np.geomspace(1e-6, 0.5, 8))})


@pytest.mark.parametrize("r", WORKING_R, ids=lambda r: f"{r:.9g}")
def test_closed_forms_match_quadrature_across_working_domain(r):
    # the sphere rule is the independent oracle for L_k and the Husimi metric,
    # right up to both edges of the working domain
    for th in (0.0, 0.3, PI / 2, 2.9, PI):
        for ph in (0.7, 4.0):
            s = QubitState(r, th, ph)
            pairs = [(new_log_derivative(s, k), new_log_derivative(s, k, "quadrature"))
                     for k in ParamIndex]
            pairs.append((husimi_classical_metric(s), husimi_classical_metric(s, "quadrature")))
            for closed, quad in pairs:
                assert np.max(np.abs(quad - closed)) <= 5e-11 * np.max(np.abs(closed)), (th, ph)


def test_husimi_metric_small_r_limits():
    r = 0.01
    g = husimi_classical_metric(QubitState(r, 1.0, 1.0))
    assert abs(g[0, 0] - 1.0 / 3.0) <= 1e-4
    assert abs(k_coeff(r) / (4.0 * r**3) - 1.0 / 3.0) <= 1e-4


def test_husimi_metric_closed_form_values():
    for r, th, ph in grid_36():
        g = husimi_classical_metric(QubitState(r, th, ph))
        assert abs(g[0, 0] + k_tilde_coeff(r) / (2.0 * r**3)) <= 1e-10
        assert abs(g[2, 2] - k_coeff(r) * math.sin(th) ** 2 * r * r / (4.0 * r**3)) <= 1e-10


# ---------------------------------------------------------- measurement Fisher
def test_measurement_fisher_sharp_family():
    # quadrature oracle: the integrand reduces to (r sin th)^2 x11, so the
    # information equals r^2 sin^2 theta
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        fam = gaussian_sharp_family(EstimationContext(s))
        got = measurement_fisher(s, fam)
        assert abs(got - r * r * math.sin(th) ** 2) <= 1e-9


def test_measurement_fisher_reference_point():
    s = QubitState(0.5, PI / 2, 3 * PI / 4)
    fam = gaussian_sharp_family(EstimationContext(s))
    assert abs(measurement_fisher(s, fam) - 0.25) <= 1e-10


def test_measurement_fisher_maximally_mixed():
    s = QubitState(0.0, PI / 2, 0.3)
    fam = gaussian_sharp_family(EstimationContext(s))
    assert abs(measurement_fisher(s, fam)) <= 1e-15


def _masked_fisher(g, p, dp):
    """dp^2 / p integrated over the nodes with p > 0, masked as the Fisher
    integral was before it skipped the mask: the reference for both paths."""
    out = np.zeros_like(p)
    ok = ~(p <= 0)
    out[ok] = dp[ok] ** 2 / p[ok]
    return float(g.integrate(out))


def _affine_parts(g, state):
    """B and E of p = x11 + r B and dp = r E, as the node-level reference."""
    unit = QubitState(1.0, state.theta, state.phi)
    return g.trace(d_rho(state, ParamIndex.R)), g.trace(d_rho(unit, ParamIndex.PHI))


def test_fisher_integral_equals_the_masked_integral_bit_for_bit():
    # (r E)^2 / p = r^2 E^2 / p with p = x11 + r B
    rng = np.random.default_rng(20261018)
    for case in range(16):
        state = QubitState(rng.uniform(0.05, 0.95), rng.uniform(0.2, 2.9), rng.uniform(-1.2, 1.2))
        ctx = EstimationContext(state, eps=rng.uniform(-0.3, 0.3))
        fam = (gaussian_sharp_family if case % 2 else tapered_sharp_family)(ctx)
        r = state.r
        for g in (fam.grid(), _with_vanishing_elements(fam.grid())):
            b, e = _affine_parts(g, state)
            assert fisher_integral(g, state) == r * r * _masked_fisher(g, g.x11 + r * b, e)


def _with_vanishing_elements(g):
    """g with p <= 0 and dp = 0 at some nodes: all elements 0 at every 7th,
    x11 = -1e-300 and x12 = y12 = 0 at every 11th from the 3rd."""
    x11, x12, y12 = (np.array(a) for a in (g.x11, g.x12, g.y12))
    x11[::7], x11[3::11] = 0.0, -1e-300
    for a in (x12, y12):
        a[::7], a[3::11] = 0.0, 0.0
    return dataclasses.replace(g, x11=x11, x12=x12, y12=y12)


def test_fisher_integral_matches_the_trace_of_rho_and_its_derivative():
    # p = tr(rho Pi) and dp = tr(d_phi rho Pi) at every node: the formula the
    # affine form replaced, to rounding
    for state, kwargs in ((QubitState(0.7, 1.1, 0.4), {"offdiag_scale": 0.6}),
                          (QubitState(0.3, 2.5, 5.9), {"taper_power": 3})):
        g = tapered_sharp_family(EstimationContext(state, eps=0.2), **kwargs).grid()
        p, dp = g.trace(density_matrix(state)), g.trace(d_rho(state, ParamIndex.PHI))
        want = _masked_fisher(g, p, dp)
        assert abs(fisher_integral(g, state) - want) <= 1e-14 * want


def test_fisher_integral_names_where_the_density_vanishes():
    state = QubitState(0.5, PI / 2, 3 * PI / 4)
    g = gaussian_sharp_family(EstimationContext(state)).grid()
    # p = x11 + r B is exactly 0 at node 40 and negative at node 90, where
    # dp = r E != 0
    b, e = _affine_parts(g, state)
    x11 = np.array(g.x11)
    x11[[40, 90]] = [-(state.r * b[40]), -1e-3]
    bad = dataclasses.replace(g, x11=x11)
    assert bad.x11[40] + state.r * b[40] == 0.0 and e[40] != 0.0
    with pytest.raises(DomainError, match=f"^outcome density vanishes at phi_hat = {re.escape(repr(float(g.x[40])))}$"):
        fisher_integral(bad, state)


def test_sharp_family_fisher_is_r2_sin2_theta_m0():
    # a sharp family built at the state's phi has x12, y12 = q s (sin phi,
    # cos phi) x11, so at every node tr(d_r rho Pi) = 0, p = x11 and
    # tr(d_phi rho Pi)^2 = q^2 r^2 sin^2(theta) x11^2: the Fisher integral
    # is q^2 r^2 sin^2(theta) m0, m0 the grid sum of x11
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        theta, phi = float(rng.uniform(0.05, PI - 0.05)), float(rng.uniform(-7.0, 7.0))
        eps, sigma = float(rng.uniform(-0.5, 0.5)), float(np.exp(rng.uniform(math.log(0.3), math.log(20.0))))
        state = QubitState(0.5, theta, phi)
        ctx = EstimationContext(state, eps=eps)
        families = [(gaussian_sharp_family(ctx, sigma=sigma), 1.0)]
        families += [(tapered_sharp_family(ctx, sigma=sigma, taper_power=2, offdiag_scale=q), q)
                     for q in (1.0, -0.6, 0.3)]
        for family, q in families:
            g = family.grid()
            assert np.max(np.abs(g.trace(d_rho(state, ParamIndex.R)))) <= 1e-15 * np.max(g.x11)
            m0 = g.moment("x11", 0)
            for r in (1e-3, 0.3, 0.9, 0.999):
                want = fisher_integral(g, QubitState(r, theta, phi))
                got = q * q * r * r * math.sin(theta) ** 2 * m0
                assert abs(got - want) <= 4e-15 * want, (family.label, theta, phi, eps, r)


def test_sharp_family_fisher_identity_in_exact_arithmetic():
    # rho = (I + r n.sigma)/2 and the sharp element at the state's phi with
    # sign s = +-1 (no grid node has s = 0: every grid is split at mu):
    # tr(d_r rho Pi) = 0, tr(rho Pi) = x11, tr(d_phi rho Pi) = -s q r sin(theta) x11
    r, theta, phi, x, q = sympy.symbols("r theta phi x q", real=True)
    n = (sympy.sin(theta) * sympy.cos(phi), sympy.sin(theta) * sympy.sin(phi), sympy.cos(theta))
    paulis = (sympy.Matrix([[0, 1], [1, 0]]), sympy.Matrix([[0, -sympy.I], [sympy.I, 0]]),
              sympy.Matrix([[1, 0], [0, -1]]))
    rho = (sympy.eye(2) + r * sum((c * m for c, m in zip(n, paulis)), sympy.zeros(2))) / 2
    for s in (1, -1):
        x12, y12 = q * s * sympy.sin(phi) * x, q * s * sympy.cos(phi) * x
        povm = sympy.Matrix([[x, x12 + sympy.I * y12], [x12 - sympy.I * y12, x]])
        p, dr, dphi = ((m * povm).trace() for m in (rho, rho.diff(r), rho.diff(phi)))
        assert sympy.expand(dr) == 0
        assert sympy.trigsimp(sympy.expand(p - x)) == 0
        assert sympy.trigsimp(sympy.expand(dphi + s * q * r * sympy.sin(theta) * x)) == 0


# ---------------------------------------------------------------- metric report
def test_metric_report_contents():
    s = QubitState(0.5, PI / 2, 3 * PI / 4)
    data = metric_report(s)
    for key in ("new_metric", "sld_metric", "rld_metric", "husimi_classical",
                "monotone_SLD", "monotone_RLD", "monotone_KuboMori"):
        assert key in data
    assert abs(data["measurement_fisher_phiphi"] - 0.25) <= 1e-10
    import json

    json.dumps(data)  # must be serializable as-is


def test_metric_report_reads_the_sweep_rows_fisher_entry():
    # both read r^2 sin^2(theta) m0 on the same family's grid, so B_Fisher is
    # the report's entry inverted, on the default rule and on a coarse one
    rng = np.random.default_rng(20261021)
    for case in range(200):
        r, theta = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.05, PI - 0.05))
        phi, eps = float(rng.uniform(-7.0, 7.0)), float(rng.uniform(-0.5, 0.5))
        sigma = float(np.exp(rng.uniform(math.log(0.3), math.log(20.0))))
        if abs(math.cos(phi)) < 1e-3:
            continue
        for spec in (QuadSpec(), QuadSpec(8, 6)):
            kwargs = {"eps": eps, "sigma": sigma, "spec": spec}
            report = metric_report(QubitState(r, theta, phi), **kwargs)
            [row] = bounds_sweep([r], theta=theta, phi=phi, **kwargs)
            assert row.B_Fisher == 1.0 / report["measurement_fisher_phiphi"], (case, spec)


def test_metric_report_makes_no_node_pass_for_its_fisher_entry(monkeypatch):
    calls = []
    for owner, name in ((metrics, "fisher_integral"), (FamilyGrid, "trace")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=original: calls.append(args) or _f(*args))
    report = metric_report(QubitState(0.5, 1.1, 0.4), eps=0.2, sigma=2.0)
    assert report["measurement_fisher_phiphi"] > 0.0
    assert calls == []


def test_metric_report_skips_fisher_at_cos_zero():
    rep = metric_report(QubitState(0.5, PI / 2, PI / 2))
    assert rep["measurement_fisher_phiphi"] is None


def test_metric_report_domain_error_below_working_range():
    with pytest.raises(DomainError):
        metric_report(QubitState(0.0, 1.0, 1.0))
