"""Operator logarithmic derivatives and the deviation operators h_k.

The phase-space-derived logarithmic derivative for parameter xi^k is

    L_k = integral d/dxi^k [log Q(Omega)] Delta(Omega; +1) dmu(Omega),

i.e. the log-derivative of the Husimi function (the s = -1 symbol of rho)
mapped back to an operator by the inverse map `phasespace.inverse_weyl`.
Closed forms exist for all three parameters and are the default evaluation
path; `method="quadrature"` (see `check_method`) evaluates the integral
directly so the two routes can be cross-checked.  The closed forms, like
those of h_k, are built from `qubit.d_rho` (with K = coeff_k, Kt = coeff_k_tilde):

    L_r = Kt / (2 r^3) (r I - 6 d_r rho),
    L_k = 3 K / (2 r^3) d_k rho    for k = theta, phi,

so the angular L_k are the SLDs 2 d_k rho rescaled by 3 K / (4 r^3).

Two scalar coefficients recur throughout and get package-internal names:

    coeff_k(r)       = 2r + (1 - r^2) log((1-r)/(1+r))   -> (4/3) r^3,  > 0
    coeff_k_tilde(r) = 2r + log((1-r)/(1+r))             -> -(2/3) r^3, < 0

Both cancel as differences of O(r) terms, as do h_3/r and c_dir (`deviation_h`),
so each is r^n times a polynomial in r^2 and U(r) = sum_j r^(2j)/(2j+5), where
atanh r = r + r^3/3 + r^5 U; U is summed to rounding below SERIES_SWITCH_R = 0.45
and read from atanh above.  The working domain for everything log-based is
[R_MIN, 1 - R_MIN]; outside it operations raise DomainError instead of
extrapolating (the logarithm diverges at r = 1 and the closed forms are
0/0 at r = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .phasespace import husimi, husimi_partial, inverse_weyl
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix, eig2

R_MIN = 1e-6
R_MAX = 1.0 - 1e-6
SERIES_SWITCH_R = 0.45


def _working_r_error(r: float, what: str) -> DomainError:
    return DomainError(f"{what} requires r in [{R_MIN:g}, {R_MAX:g}], got r = {float(r)!r}")


def require_working_r(r: float, what: str) -> None:
    if not R_MIN <= r <= R_MAX:
        raise _working_r_error(r, what)


def require_invertible(r: float, what: str) -> None:
    """Reject the pure-state edge r > R_MAX, where rho is singular."""
    if r > R_MAX:
        raise DomainError(f"{what} requires r <= {R_MAX:g} (rho must be invertible)")


def check_method(method: str) -> None:
    """A closed form's evaluation route: "closed" or its sphere "quadrature"."""
    if method not in ("closed", "quadrature"):
        raise ValueError(f"method must be one of ('closed', 'quadrature'), got {method!r}")


def atanh_tail(r: float, what: str) -> float:
    """U(r) = sum_{j>=0} r^(2j)/(2j+5), with atanh r = r + r^3/3 + r^5 U; as U
    diverges at |r| = 1, |r| >= 1 and NaN raise DomainError naming the range."""
    if not abs(r) < 1.0:
        raise _working_r_error(r, what)
    if abs(r) >= SERIES_SWITCH_R:
        return (math.atanh(r) - r - r ** 3 / 3.0) / r ** 5
    r2 = r * r
    total, power, n = 0.2, r2, 7.0
    while (new := total + power / n) != total:
        total, power, n = new, power * r2, n + 2.0
    return total


def coeff_k(r: float, u: float | None = None) -> float:
    """2r + (1 - r^2) log((1-r)/(1+r)) = r^3 (4/3 + r^2 (2/3 - 2 (1 - r^2) U))."""
    u = atanh_tail(r, "coeff_k") if u is None else u
    return r ** 3 * (4.0 / 3.0 + r * r * (2.0 / 3.0 - 2.0 * (1.0 - r) * (1.0 + r) * u))


def coeff_k_tilde(r: float, u: float | None = None) -> float:
    """2r + log((1-r)/(1+r)) = -2 r^3 (1/3 + r^2 U)."""
    u = atanh_tail(r, "coeff_k_tilde") if u is None else u
    return -2.0 * r ** 3 * (1.0 / 3.0 + r * r * u)


def coeff_h3r(r: float, u: float | None = None) -> float:
    """Scalar amplitude of the third deviation operator,
    (6r - 4r^3 + 3(1 - r^2) log((1-r)/(1+r))) / (8 r^2) = r^3 (1 - 3 (1 - r^2) U) / 4."""
    u = atanh_tail(r, "coeff_h3r") if u is None else u
    return r ** 3 * (1.0 - 3.0 * (1.0 - r) * (1.0 + r) * u) / 4.0


def new_log_derivative(state: QubitState, k: ParamIndex, method: str = "closed") -> np.ndarray:
    """Phase-space-derived logarithmic derivative for parameter xi^k."""
    check_method(method)
    require_working_r(state.r, "new_log_derivative")
    k = ParamIndex(k)
    if method == "quadrature":
        q = husimi(state)
        dq = husimi_partial(state, k)
        return inverse_weyl(lambda t1, p1: dq(t1, p1) / q(t1, p1), -1.0, state.bloch)

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
    require_invertible(state.r, "sld")
    rho = density_matrix(state)
    drho = d_rho(state, k)
    w, v = eig2(rho)
    d_eig = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    L_eig = 2.0 * d_eig / denom
    return v @ L_eig @ v.conj().T


def rld(state: QubitState, k: ParamIndex) -> np.ndarray:
    """Right logarithmic derivative L = rho^{-1} d_rho (generally
    non-Hermitian), with rho^{-1} by the adjugate formula."""
    require_invertible(state.r, "rld")
    rho = density_matrix(state)
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    inv = np.array([[rho[1, 1], -rho[0, 1]], [-rho[1, 0], rho[0, 0]]], dtype=complex) / det
    return inv @ d_rho(state, k)


def deviation_h(state: QubitState, k: ParamIndex) -> np.ndarray:
    """Deviation operator h_k = d_rho - (rho L_k + L_k rho)/2 with the
    phase-space L_k, in closed form as multiples of d_rho:

        h_r = c_iso I + 2 c_dir d_r rho,
        h_k = -(2 coeff_h3r(r) / r) d_k rho    for k = theta, phi,
        c_dir = (6r + (3 - r^2) log((1-r)/(1+r))) / (4 r^3) = r^2 (1/3 - (3 - r^2) U) / 2.
    """
    require_working_r(state.r, "deviation_h")
    k = ParamIndex(k)
    r = state.r
    drho = d_rho(state, k)
    if k is ParamIndex.R:
        u = atanh_tail(r, "deviation_h")
        c_iso = coeff_k_tilde(r, u) / (2.0 * r * r)
        c_dir = r * r * (1.0 / 3.0 - (3.0 - r * r) * u) / 2.0
        return c_iso * np.eye(2) + 2.0 * c_dir * drho
    return -(2.0 * coeff_h3r(r) / r) * drho
