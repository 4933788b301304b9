"""Operator logarithmic derivatives and the deviation operators h_k.

The phase-space-derived logarithmic derivative for parameter xi^k is

    L_k = integral d/dxi^k [log Q(Omega)] Delta(Omega; +1) dmu(Omega),

i.e. the log-derivative of the Husimi function (the s = -1 symbol of rho)
mapped back to an operator by the inverse map `phasespace.inverse_weyl`.
Closed forms exist for all three parameters and are the default evaluation
path; `method="quadrature"` evaluates the integral directly so the two
routes can be cross-checked.  The closed forms, like those of h_k, are
built from `qubit.d_rho` (with K = coeff_k, Kt = coeff_k_tilde):

    L_r = Kt / (2 r^3) (r I - 6 d_r rho),
    L_k = 3 K / (2 r^3) d_k rho    for k = theta, phi,

so the angular L_k are the SLDs 2 d_k rho rescaled by 3 K / (4 r^3).

Two scalar coefficients recur throughout and get package-internal names:

    coeff_k(r)       = 2r + (1 - r^2) log((1-r)/(1+r))   -> (4/3) r^3,  > 0
    coeff_k_tilde(r) = 2r + log((1-r)/(1+r))             -> -(2/3) r^3, < 0

Both are differences of O(r) terms, so below SERIES_SWITCH_R they are
evaluated from their series through 7th order to avoid catastrophic
cancellation.  The working domain for everything log-based is
[R_MIN, 1 - R_MIN]; outside it operations raise DomainError instead of
extrapolating (the logarithm diverges at r = 1 and the closed forms are
0/0 at r = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .phasespace import husimi, husimi_partial, inverse_weyl
from .quadrature import QuadSpec
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix, eig2

R_MIN = 1e-6
R_MAX = 1.0 - 1e-6
SERIES_SWITCH_R = 1e-2


def _working_r_error(r: float, what: str) -> DomainError:
    return DomainError(f"{what} requires r in [{R_MIN:g}, {R_MAX:g}], got r = {float(r)!r}")


def require_working_r(r: float, what: str = "operation") -> None:
    if not R_MIN <= r <= R_MAX:
        raise _working_r_error(r, what)


def _log_ratio(r: float, what: str) -> float:
    """log((1-r)/(1+r)), which diverges at r = 1; r >= 1 and NaN raise
    DomainError naming the working range."""
    if not r < 1.0:
        raise _working_r_error(r, what)
    return math.log((1.0 - r) / (1.0 + r))


def coeff_k(r: float) -> float:
    """2r + (1 - r^2) log((1-r)/(1+r)); series below the cancellation switch."""
    if r < SERIES_SWITCH_R:
        r2 = r * r
        return r ** 3 * (4.0 / 3.0 + r2 * (4.0 / 15.0 + r2 * (4.0 / 35.0)))
    return 2.0 * r + (1.0 - r * r) * _log_ratio(r, "coeff_k")


def coeff_k_tilde(r: float) -> float:
    """2r + log((1-r)/(1+r)); series below the cancellation switch."""
    if r < SERIES_SWITCH_R:
        r2 = r * r
        return -(r ** 3) * (2.0 / 3.0 + r2 * (2.0 / 5.0 + r2 * (2.0 / 7.0)))
    return 2.0 * r + _log_ratio(r, "coeff_k_tilde")


def coeff_h3r(r: float) -> float:
    """Scalar amplitude of the third deviation operator,
    (6r - 4r^3 + 3(1 - r^2) log((1-r)/(1+r))) / (8 r^2)."""
    if r < SERIES_SWITCH_R:
        r2 = r * r
        return r ** 3 * (1.0 / 10.0 + r2 * (3.0 / 70.0 + r2 * (1.0 / 42.0)))
    if not r < 1.0:
        raise _working_r_error(r, "coeff_h3r")
    return (3.0 * coeff_k(r) - 4.0 * r ** 3) / (8.0 * r * r)


def _check_method(method: str, allowed: tuple[str, ...]) -> None:
    if method not in allowed:
        raise ValueError(f"method must be one of {allowed}, got {method!r}")


def new_log_derivative(
    state: QubitState,
    k: ParamIndex,
    method: str = "closed",
    spec: QuadSpec | None = None,
) -> np.ndarray:
    """Phase-space-derived logarithmic derivative for parameter xi^k."""
    _check_method(method, ("closed", "quadrature"))
    require_working_r(state.r, "new_log_derivative")
    k = ParamIndex(k)
    if method == "quadrature":
        q = husimi(state)
        dq = husimi_partial(state, k)
        return inverse_weyl(lambda t1, p1: dq(t1, p1) / q(t1, p1), -1.0, spec, state.bloch)

    r = state.r
    drho = d_rho(state, k)
    if k is ParamIndex.R:
        return coeff_k_tilde(r) / (2.0 * r ** 3) * (r * np.eye(2) - 6.0 * drho)
    return 3.0 * coeff_k(r) / (2.0 * r ** 3) * drho


def sld(state: QubitState, k: ParamIndex) -> np.ndarray:
    """Symmetric logarithmic derivative: solves d_rho = (rho L + L rho)/2.

    Built in the eigenbasis of rho via L_ab = 2 (d_rho)_ab / (lam_a + lam_b),
    which stays exact at r = 0.  The pure-state edge r = 1 is rejected.
    """
    if state.r > R_MAX:
        raise DomainError(f"sld requires r <= {R_MAX:g} (rho must not be singular)")
    rho = density_matrix(state)
    drho = d_rho(state, k)
    w, v = eig2(rho)
    d_eig = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    L_eig = 2.0 * d_eig / denom
    return v @ L_eig @ v.conj().T


def _rho_inverse(rho: np.ndarray) -> np.ndarray:
    """rho^{-1} of a 2x2 density matrix by the adjugate formula."""
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    return np.array([[rho[1, 1], -rho[0, 1]], [-rho[1, 0], rho[0, 0]]], dtype=complex) / det


def rld(state: QubitState, k: ParamIndex) -> np.ndarray:
    """Right logarithmic derivative L = rho^{-1} d_rho (generally non-Hermitian)."""
    if state.r > R_MAX:
        raise DomainError(f"rld requires r <= {R_MAX:g} (rho must be invertible)")
    return _rho_inverse(density_matrix(state)) @ d_rho(state, k)


def deviation_h(state: QubitState, k: ParamIndex, method: str = "closed") -> np.ndarray:
    """Deviation operator h_k = d_rho - (rho L_k + L_k rho)/2 with the
    phase-space L_k.

    `method="definitional"` evaluates that expression with the closed-form
    L_k; `method="closed"` returns the multiples of d_rho

        h_r = c_iso I + 2 c_dir d_r rho,
        h_k = -(2 coeff_h3r(r) / r) d_k rho    for k = theta, phi.
    """
    _check_method(method, ("closed", "definitional"))
    require_working_r(state.r, "deviation_h")
    k = ParamIndex(k)
    if method == "definitional":
        rho = density_matrix(state)
        L = new_log_derivative(state, k, method="closed")
        return d_rho(state, k) - 0.5 * (rho @ L + L @ rho)

    r = state.r
    drho = d_rho(state, k)
    if k is ParamIndex.R:
        # 4r^2 + 2r log(...) = 2r * coeff_k_tilde(r)
        c_iso = coeff_k_tilde(r) / (2.0 * r * r)
        if r < SERIES_SWITCH_R:
            r2 = r * r
            c_dir = -(r2) * (2.0 / 15.0 + r2 * (4.0 / 35.0 + r2 * (2.0 / 21.0)))
        else:
            lg = math.log((1.0 - r) / (1.0 + r))
            c_dir = (6.0 * r + (3.0 - r * r) * lg) / (4.0 * r ** 3)
        return c_iso * np.eye(2) + 2.0 * c_dir * drho
    return -(2.0 * coeff_h3r(r) / r) * drho
