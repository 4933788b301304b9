"""Metric tensors at a state point.

All 3x3 metrics use the parameter order (r, theta, phi) and the line-element
convention

    dn^2 = r^2 (d theta^2 + sin^2 theta d phi^2),

which is the unique reading that makes the closed form of the new metric
agree with the direct trace computation tr(rho (L_i L_j + L_j L_i)/2); the
agreement is enforced by tests rather than assumed.

Closed forms, with K = coeff_k(r) and Kt = coeff_k_tilde(r):

    new:    g_rr = (9 - 5 r^2) Kt^2 / (4 r^6),
            g_theta_theta = 9 K^2 / (16 r^4),  g_phi_phi = same * sin^2 theta
    Husimi: g_rr = -Kt / (2 r^3),
            g_theta_theta = K / (4 r),         g_phi_phi = same * sin^2 theta
    SLD:    diag(1/(1-r^2), r^2, r^2 sin^2 theta)
    RLD:    SLD scaled by 1/(1-r^2) on the angular block as well.

The monotone family is evaluated as the coefficient pair
(1/(1-r^2), g((1-r)/(1+r)) / (1+r)) multiplying (dr^2, dn^2), where
g(t) = 1/f(t) and f is the operator-monotone function of the chosen kind.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .derivatives import (
    _check_method,
    _require_invertible,
    _rho_inverse,
    coeff_k,
    coeff_k_tilde,
    new_log_derivative,
    require_working_r,
    sld,
)
from .phasespace import husimi, husimi_partial
from .quadrature import sphere_integrate
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

_PARAMS = (ParamIndex.R, ParamIndex.THETA, ParamIndex.PHI)


def _angular_block(r: float, theta: float, radial: float, angular: float) -> np.ndarray:
    """diag(radial, angular*r^2, angular*r^2 sin^2 theta)."""
    g = np.zeros((3, 3))
    g[0, 0] = radial
    g[1, 1] = angular * r * r
    g[2, 2] = g[1, 1] * math.sin(theta) ** 2
    return g


def _gram(rho: np.ndarray, ls) -> np.ndarray:
    """g_ij = tr(rho (L_i L_j + L_j L_i)/2) for three operators L_i."""
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            sym = ls[i] @ ls[j] + ls[j] @ ls[i]
            g[i, j] = g[j, i] = 0.5 * np.trace(rho @ sym).real
    return g


def new_metric(state: QubitState, method: str = "closed") -> np.ndarray:
    """Metric built from the phase-space logarithmic derivatives.

    `method="trace"` assembles g_ij = tr(rho (L_i L_j + L_j L_i)/2); the
    closed form is diagonal in (r, theta, phi).
    """
    _check_method(method, ("closed", "trace"))
    require_working_r(state.r, "new_metric")
    r, th = state.r, state.theta
    if method == "trace":
        ls = [new_log_derivative(state, k, method="closed") for k in _PARAMS]
        return _gram(density_matrix(state), ls)
    kt2 = coeff_k_tilde(r) ** 2
    radial = (9.0 - 5.0 * r * r) * kt2 / (4.0 * r ** 6)
    angular = 9.0 * coeff_k(r) ** 2 / (16.0 * r ** 6)
    return _angular_block(r, th, radial, angular)


def sld_metric(state: QubitState) -> np.ndarray:
    """Metric of the symmetric logarithmic derivative: diag(1/(1-r^2), r^2,
    r^2 sin^2 theta)."""
    r = state.r
    _require_invertible(r, "sld_metric")
    return _angular_block(r, state.theta, 1.0 / (1.0 - r * r), 1.0)


def sld_metric_trace(state: QubitState) -> np.ndarray:
    """sld_metric assembled from the operator solution (cross-check path)."""
    return _gram(density_matrix(state), [sld(state, k) for k in _PARAMS])


def rld_metric(state: QubitState) -> np.ndarray:
    """Real part of tr(d_i rho rho^{-1} d_j rho), assembled entrywise."""
    _require_invertible(state.r, "rld_metric")
    inv = _rho_inverse(density_matrix(state))
    dr = [d_rho(state, k) for k in _PARAMS]
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            g[i, j] = g[j, i] = _rld_entry(inv, dr[i], dr[j])
    return g


def _rld_entry(rho_inv: np.ndarray, dri: np.ndarray, drj: np.ndarray) -> float:
    """One RLD metric entry, Re tr(d_i rho rho^{-1} d_j rho)."""
    return np.trace(dri @ rho_inv @ drj).real


def _f_sld(t: float) -> float:
    return 0.5 * (1.0 + t)


def _f_rld(t: float) -> float:
    return 2.0 * t / (1.0 + t)


def _f_kubo_mori(t: float) -> float:
    if abs(t - 1.0) < 1e-8:
        # (t-1)/log t has a removable singularity at t = 1
        u = t - 1.0
        return 1.0 + u / 2.0 - u * u / 12.0
    return (t - 1.0) / math.log(t)


# each name's operator-monotone function f, with f(1) = 1 and f(t) = t f(1/t)
MONOTONE_SPECS: dict[str, Callable[[float], float]] = {
    "SLD": _f_sld,
    "RLD": _f_rld,
    "KuboMori": _f_kubo_mori,
}


def monotone_metric(f: Callable[[float], float], r: float) -> tuple[float, float]:
    """(radial, angular) coefficients of dr^2 and dn^2 for the monotone
    metric generated by f, one of MONOTONE_SPECS."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"monotone_metric requires 0 < r < 1, got {float(r)!r}")
    t = (1.0 - r) / (1.0 + r)
    return 1.0 / (1.0 - r * r), 1.0 / f(t) / (1.0 + r)


def husimi_classical_metric(state: QubitState, method: str = "closed") -> np.ndarray:
    """Classical Fisher metric of the Husimi density over the sphere.

    `method="quadrature"` evaluates E_Q[d_i log Q d_j log Q] directly.
    """
    _check_method(method, ("closed", "quadrature"))
    require_working_r(state.r, "husimi_classical_metric")
    r, th = state.r, state.theta
    if method == "quadrature":
        q = husimi(state)
        dq = [husimi_partial(state, k) for k in _PARAMS]

        def integrand(t1, p1):
            d = np.stack([f(t1, p1) for f in dq], axis=-1)
            return d[..., :, None] * d[..., None, :] / q(t1, p1)[..., None, None]

        return sphere_integrate(integrand, state.bloch)
    radial = -coeff_k_tilde(r) / (2.0 * r ** 3)
    angular = coeff_k(r) / (4.0 * r ** 3)
    return _angular_block(r, th, radial, angular)


def measurement_fisher(state: QubitState, povm) -> float:
    """Classical Fisher information of the frozen measurement for phi.

    `povm` is a `measurement.PovmFamily`.  Its elements are held at
    the family's construction point; the phi-derivative acts through the
    state only.  The integral runs over the family's grid: its own `spec`,
    split at its discontinuities.
    """
    return _fisher_integral(povm.grid(), state)(state.r)


def _fisher_integral(g, state: QubitState):
    """The Fisher integral over grid g's nodes as a function of r at the
    state's angles.  As rho = I/2 + r d_r rho, the outcome density is
    p = x11 + r B, B = tr(d_r rho Pi), and its phi-derivative r E, with
    E = tr(d_phi rho Pi) at r = 1; the integral is r^2 times that of E^2 / p.
    A node with p <= 0 adds 0, or raises naming its abscissa where r E != 0;
    with p > 0 throughout nothing is masked, and with p > 0 nowhere the
    integral raises."""
    b = g.trace(d_rho(state, ParamIndex.R))
    e = g.trace(d_rho(QubitState(1.0, state.theta, state.phi), ParamIndex.PHI))
    e2 = e * e

    def at(r: float) -> float:
        p, num = g.x11 + r * b, e2
        if not p.min() > 0:
            if not np.any(p > 0):
                raise DomainError("outcome density vanishes at every quadrature node")
            bad = p <= 0
            vanishing = bad & (np.abs(r * e) > 0)
            if np.any(vanishing):
                where = float(g.x[np.argmax(vanishing)])
                raise DomainError(f"outcome density vanishes at phi_hat = {where!r}")
            p, num = np.where(bad, 1.0, p), np.where(bad, 0.0, num)
        return float(r * r * g.integrate(num / p))

    return at
