import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound.bounds import metric_report
from qbound import metrics
from qbound.derivatives import R_MAX, R_MIN, _rho_inverse, new_log_derivative
from qbound.measurement import EstimationContext, gaussian_sharp_family
from qbound.metrics import (
    MONOTONE_SPECS,
    husimi_classical_metric,
    measurement_fisher,
    monotone_metric,
    new_metric,
    rld_metric,
    sld_metric,
    sld_metric_trace,
)
from qbound.quadrature import sphere_integrate
from qbound.qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

from conftest import PI, grid_36, k_coeff, k_tilde_coeff, new_metric_phiphi_oracle


# ------------------------------------------------------------------ new metric
def test_new_metric_phiphi_reference_point():
    got = new_metric(QubitState(0.5, PI / 2, 3 * PI / 4))[2, 2]
    oracle = new_metric_phiphi_oracle(0.5, PI / 2)
    assert abs(oracle - 0.278913) <= 1e-5
    assert abs(got - oracle) <= 1e-12


def test_new_metric_trace_equals_closed():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        diff = new_metric(s, "trace") - new_metric(s, "closed")
        assert np.max(np.abs(diff)) <= 1e-8


def test_new_metric_off_diagonals_vanish():
    for r, th, ph in grid_36():
        g = new_metric(QubitState(r, th, ph), "trace")
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
        for g in (new_metric(s, "trace"), sld_metric(s), rld_metric(s),
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
        # inverse-matrix oracle
        rho_inv = np.linalg.inv(density_matrix(s))
        for i, k in enumerate(ParamIndex):
            di = d_rho(s, k)
            assert abs(g[i, i] - np.trace(di @ rho_inv @ di).real) <= 1e-12


def test_rld_entry_equals_the_full_metric_entry():
    for r in (R_MIN, 0.3, 0.5, 0.9, R_MAX):
        for theta in (0.0, 0.3, PI / 2, 2.9):
            s = QubitState(r, theta, 1.2)
            d_phi = d_rho(s, ParamIndex.PHI)
            entry = metrics._rld_entry(_rho_inverse(density_matrix(s)), d_phi, d_phi)
            assert entry == rld_metric(s)[2, 2], (r, theta)


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
    for spec in MONOTONE_SPECS.values():
        _, angular = monotone_metric(spec, 1e-6)
        assert abs(angular - 1.0) <= 1e-5


@settings(max_examples=80, deadline=None, derandomize=True)
@given(t=st.floats(0.01, 100.0))
def test_monotone_functional_symmetry(t):
    # f(t) = t f(1/t) and f(1) = 1 for every named kind
    for spec in MONOTONE_SPECS.values():
        assert abs(spec.f(t) - t * spec.f(1.0 / t)) <= 1e-10 * max(1.0, spec.f(t))
        assert abs(spec.f(1.0) - 1.0) <= 1e-12


def test_kubo_mori_removable_singularity():
    f = MONOTONE_SPECS["KuboMori"].f
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
                assert np.max(np.abs(quad - closed)) <= 1e-9 * np.max(np.abs(closed)), (th, ph)


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


# ---------------------------------------------------------------- metric report
def test_metric_report_contents():
    s = QubitState(0.5, PI / 2, 3 * PI / 4)
    rep = metric_report(s)
    data = rep.as_dict()
    for key in ("new_metric", "sld_metric", "rld_metric", "husimi_classical",
                "monotone_SLD", "monotone_RLD", "monotone_KuboMori"):
        assert key in data
    assert abs(rep.measurement_fisher_phiphi - 0.25) <= 1e-10
    import json

    json.dumps(data)  # must be serializable as-is


def test_metric_report_skips_fisher_at_cos_zero():
    rep = metric_report(QubitState(0.5, PI / 2, PI / 2))
    assert rep.measurement_fisher_phiphi is None


def test_metric_report_domain_error_below_working_range():
    with pytest.raises(DomainError):
        metric_report(QubitState(0.0, 1.0, 1.0))
