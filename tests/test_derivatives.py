import math
import re

import mpmath
import numpy as np
import pytest
import sympy

from qbound.bounds import bound_Cmax
from qbound.derivatives import (
    R_MAX,
    R_MIN,
    SERIES_SWITCH_R,
    coeff_h3r,
    coeff_k,
    coeff_k_tilde,
    deviation_h,
    new_log_derivative,
    rld,
    sld,
)
from qbound.measurement import EstimationContext, gaussian_sharp_family
from qbound.metrics import deviation_h_definitional
from qbound.qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

from conftest import PI, grid_36, h3_amplitude, k_coeff, k_tilde_coeff


# ---------------------------------------------------------------- coefficients
def test_coefficients_match_definitions():
    for r in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        assert abs(coeff_k(r) - k_coeff(r)) <= 1e-14
        assert abs(coeff_k_tilde(r) - k_tilde_coeff(r)) <= 1e-14
        assert abs(coeff_h3r(r) - h3_amplitude(r)) <= 1e-12


def test_coefficient_signs():
    for r in np.linspace(1e-3, 1 - 1e-3, 50):
        assert coeff_k(r) > 0
        assert coeff_k_tilde(r) < 0


def test_coefficient_small_r_limits():
    r = 1e-3
    assert abs(coeff_k(r) / ((4.0 / 3.0) * r**3) - 1.0) <= 1e-6
    assert abs(coeff_k_tilde(r) / (-(2.0 / 3.0) * r**3) - 1.0) <= 1e-6


def test_series_direct_continuity_at_switch():
    # the series branch and the direct formula agree around the switch radius
    for r in (0.8 * SERIES_SWITCH_R, SERIES_SWITCH_R, 1.2 * SERIES_SWITCH_R):
        assert abs(coeff_k(r) / k_coeff(r) - 1.0) <= 1e-8
        assert abs(coeff_k_tilde(r) / k_tilde_coeff(r) - 1.0) <= 1e-8
        assert abs(coeff_h3r(r) / h3_amplitude(r) - 1.0) <= 1e-5


def test_h3r_reference_value():
    # oracle: direct evaluation of the closed expression
    oracle = h3_amplitude(0.5)
    assert abs(oracle - 0.0140612) <= 1e-6
    assert abs(coeff_h3r(0.5) - oracle) <= 1e-12


def _exact_coefficients(r):
    """K, K~, h3/r and c_dir at the float r, in 60-digit arithmetic.  The log
    forms lose up to 4 digits per decade of r toward 0: 40 digits leave c_dir
    1.7e-11 off at r = R_MIN, and 60 digits hold to about 1e-36 from R_MIN up."""
    with mpmath.workdps(60):
        r = mpmath.mpf(r)
        lg = mpmath.log((1 - r) / (1 + r))
        return [float(c) for c in (2 * r + (1 - r * r) * lg, 2 * r + lg,
                                   (6 * r - 4 * r ** 3 + 3 * (1 - r * r) * lg) / (8 * r * r),
                                   (6 * r + (3 - r * r) * lg) / (4 * r ** 3))]


def test_coefficients_match_exact_arithmetic_up_to_r_one():
    # log-spaced toward both edges, dense around the old switch r = 0.01 and
    # the current one, plus the points the log form used to be pinned at
    rs = np.concatenate([np.logspace(math.log10(R_MIN), math.log10(0.5), 2000),
                         1.0 - np.logspace(-15.5, math.log10(0.5), 2000),
                         np.linspace(0.0095, 0.0105, 200),
                         SERIES_SWITCH_R * np.linspace(0.97, 1.03, 200),
                         [0.01, 0.5, 0.99, R_MAX, 0.9999999, 1.0 - 2.0**-52]])
    for r in map(float, rs):
        got = [coeff_k(r), coeff_k_tilde(r), coeff_h3r(r)]
        if R_MIN <= r <= R_MAX:
            got.append(deviation_h(QubitState(r, PI / 2, 0.0), ParamIndex.R)[0, 1].real)
        for name, value, exact in zip(("K", "K~", "h3/r", "c_dir"), got, _exact_coefficients(r)):
            assert abs(value - exact) <= 5e-14 * abs(exact), (name, r)


def test_coefficient_tail_forms_are_the_log_definitions():
    # each coefficient, written with atanh r = r + r^3/3 + r^5 U, is its log
    # definition, and U's series coefficients are 1/(2j + 5)
    r, third = sympy.symbols("r", positive=True), sympy.Rational(1, 3)
    u = (sympy.atanh(r) - r - r ** 3 / 3) / r ** 5
    lg = sympy.log((1 - r) / (1 + r))
    pairs = (
        (2 * r + (1 - r ** 2) * lg,
         r ** 3 * (4 * third + r ** 2 * (2 * third - 2 * (1 - r) * (1 + r) * u))),
        (2 * r + lg, -2 * r ** 3 * (third + r ** 2 * u)),
        ((6 * r - 4 * r ** 3 + 3 * (1 - r ** 2) * lg) / (8 * r ** 2),
         r ** 3 * (1 - 3 * (1 - r) * (1 + r) * u) / 4),
        ((6 * r + (3 - r ** 2) * lg) / (4 * r ** 3), r ** 2 * (third - (3 - r ** 2) * u) / 2),
    )
    for definition, tail_form in pairs:
        difference = sympy.expand_log((definition - tail_form).rewrite(sympy.log), force=True)
        assert sympy.simplify(difference) == 0
    series = sympy.series(u, r, 0, 24).removeO()
    assert all(series.coeff(r, 2 * j) == sympy.Rational(1, 2 * j + 5) for j in range(12))


def test_coefficients_name_the_working_range_from_r_one():
    for r in (1.0, 1.5, math.inf, math.nan):
        for f in (coeff_k, coeff_k_tilde, coeff_h3r):
            message = f"{f.__name__} requires r in [1e-06, 0.999999], got r = {r!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                f(r)
    ctx = EstimationContext(QubitState(1.0, 1.0, 0.3))
    with pytest.raises(DomainError, match=re.escape("coeff_h3r requires r in [1e-06, 0.999999]")):
        bound_Cmax(ctx, gaussian_sharp_family(ctx))


def test_h3r_cubic_limit():
    # h3 amplitude approaches r^3/10; at r = 0.01 within 1% of 1e-7
    assert abs(coeff_h3r(0.01) - 1e-7) <= 0.01 * 1e-7


# ------------------------------------------------------- new log derivatives
def test_new_log_derivative_phi_prefactor():
    r, th = 0.5, PI / 2
    oracle_pre = 3.0 * k_coeff(r) / (4.0 * r * r)
    assert abs(oracle_pre - 0.528122) <= 1e-6
    for ph in (0.0, 0.3, 3 * PI / 4):
        got = new_log_derivative(QubitState(r, th, ph), ParamIndex.PHI)
        want = oracle_pre * np.array(
            [[0.0, -1j * np.exp(-1j * ph)], [1j * np.exp(1j * ph), 0.0]]
        )
        assert np.max(np.abs(got - want)) <= 1e-12


def test_new_log_derivative_traces():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        assert abs(np.trace(new_log_derivative(s, ParamIndex.THETA))) <= 1e-12
        assert abs(np.trace(new_log_derivative(s, ParamIndex.PHI))) <= 1e-12
        tr_r = np.trace(new_log_derivative(s, ParamIndex.R)).real
        assert abs(tr_r - k_tilde_coeff(r) / (r * r)) <= 1e-10


def test_new_log_derivative_closed_vs_quadrature():
    for r in (0.1, 0.5, 0.9):
        for th, ph in ((PI / 6, 0.3), (PI / 2, 3 * PI / 4)):
            s = QubitState(r, th, ph)
            for k in ParamIndex:
                diff = new_log_derivative(s, k, "quadrature") - new_log_derivative(s, k, "closed")
                assert np.max(np.abs(diff)) <= 1e-8


def test_new_log_derivative_hermitian():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        for k in ParamIndex:
            L = new_log_derivative(s, k)
            assert np.max(np.abs(L - L.conj().T)) <= 1e-12


def test_new_log_derivative_quadrature_is_exactly_hermitian():
    for r, th, ph in ((0.3, PI / 6, 0.3), (0.8, PI / 2, 3 * PI / 4), (0.99, 2.9, 4.0)):
        s = QubitState(r, th, ph)
        for k in ParamIndex:
            L = new_log_derivative(s, k, "quadrature")
            assert np.array_equal(L, L.conj().T), (r, k)


def test_new_log_derivative_phi_approaches_sld_form():
    # relative difference of the phi-phi quadratic forms at r = 1e-2
    s = QubitState(1e-2, PI / 2, 1.0)
    rho = density_matrix(s)
    L_new = new_log_derivative(s, ParamIndex.PHI)
    q_new = np.trace(rho @ L_new @ L_new).real
    q_sld = s.r**2 * math.sin(s.theta) ** 2
    assert abs(q_new / q_sld - 1.0) <= 1e-4


def test_new_log_derivative_domain():
    for bad_r in (0.0, 1.0, 1e-7):
        with pytest.raises(DomainError):
            new_log_derivative(QubitState(bad_r, 1.0, 1.0), ParamIndex.PHI)
    with pytest.raises(ValueError, match="method"):
        new_log_derivative(QubitState(0.5, 1.0, 1.0), ParamIndex.PHI, method="exact")


# ------------------------------------------------------------------------ SLD
def test_sld_defining_equation_residual():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        rho = density_matrix(s)
        for k in ParamIndex:
            L = sld(s, k)
            resid = d_rho(s, k) - 0.5 * (rho @ L + L @ rho)
            assert np.max(np.abs(resid)) <= 1e-12


def test_sld_phi_quadratic_form():
    # oracle via the Bloch formula |dw|^2 + (w . dw)^2 / (1 - r^2)
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        rho = density_matrix(s)
        L = sld(s, ParamIndex.PHI)
        got = np.trace(rho @ L @ L).real
        dw = r * math.sin(th) * np.array([-math.sin(ph), math.cos(ph), 0.0])
        w = s.bloch
        oracle = dw @ dw + (w @ dw) ** 2 / (1 - r * r)
        assert abs(got - oracle) <= 1e-12
    s = QubitState(0.5, PI / 2, 0.3)
    L = sld(s, ParamIndex.PHI)
    assert abs(np.trace(density_matrix(s) @ L @ L).real - 0.25) <= 1e-12


def test_sld_at_maximally_mixed():
    s = QubitState(0.0, 1.3, 0.4)
    for k in ParamIndex:
        assert np.max(np.abs(sld(s, k) - 2.0 * d_rho(s, k))) <= 1e-14


def test_sld_rejects_pure_state():
    with pytest.raises(DomainError):
        sld(QubitState(1.0, 1.0, 1.0), ParamIndex.PHI)


# ------------------------------------------------------------------------ RLD
def test_rld_defining_equation_residual():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        rho = density_matrix(s)
        for k in ParamIndex:
            L = rld(s, k)
            assert np.max(np.abs(rho @ L - d_rho(s, k))) <= 1e-12


def test_rld_quadratic_form_against_inverse_oracle():
    s = QubitState(0.5, PI / 2, 0.3)
    rho = density_matrix(s)
    drho = d_rho(s, ParamIndex.PHI)
    oracle = np.trace(drho @ np.linalg.inv(rho) @ drho).real
    assert abs(oracle - 1.0 / 3.0) <= 1e-12
    L = rld(s, ParamIndex.PHI)
    assert abs(np.trace(drho @ L).real - oracle) <= 1e-12


def test_rld_approaches_sld_at_small_r():
    # series argument: the difference is O(r^2); max-entry norm at r = 1e-3
    s = QubitState(1e-3, PI / 6, 0.3)
    for k in (ParamIndex.R, ParamIndex.PHI):
        diff = np.max(np.abs(rld(s, k) - sld(s, k)))
        assert diff <= 1e-6
    # the theta component carries the same scaling
    assert np.max(np.abs(rld(s, ParamIndex.THETA) - sld(s, ParamIndex.THETA))) <= 2e-6


def test_rld_rejects_singular_state():
    with pytest.raises(DomainError):
        rld(QubitState(1.0, 1.0, 1.0), ParamIndex.PHI)


# ---------------------------------------------------------------- deviation h
def test_deviation_h_closed_vs_definitional():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        for k in ParamIndex:
            diff = deviation_h_definitional(s, k) - deviation_h(s, k)
            assert np.max(np.abs(diff)) <= 1e-8


def test_deviation_h_series_branch_matches_definitional():
    # below the switch, h_r's coefficients come from their series
    for r in (1e-6, 1e-4, 1e-3, 0.005, 0.0099):
        assert r < SERIES_SWITCH_R
        for th, ph in ((0.0, 0.4), (PI / 3, 2.0), (PI / 2, 3 * PI / 4)):
            s = QubitState(r, th, ph)
            for k in ParamIndex:
                diff = deviation_h_definitional(s, k) - deviation_h(s, k)
                assert np.max(np.abs(diff)) <= 1e-12, (r, th, k)


def test_deviation_h_traceless_components():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        assert abs(np.trace(deviation_h(s, ParamIndex.THETA))) <= 1e-14
        assert abs(np.trace(deviation_h(s, ParamIndex.PHI))) <= 1e-14


def test_deviation_h_hermitian():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        for k in ParamIndex:
            h = deviation_h(s, k)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_deviation_h_phi_amplitude():
    s = QubitState(0.5, PI / 2, 0.7)
    h3 = deviation_h(s, ParamIndex.PHI)
    got = abs(h3[0, 1])
    assert abs(got - h3_amplitude(0.5)) <= 1e-12


def test_deviation_h_domain():
    with pytest.raises(DomainError):
        deviation_h(QubitState(0.0, 1.0, 1.0), ParamIndex.PHI)
    assert R_MAX < 1.0
