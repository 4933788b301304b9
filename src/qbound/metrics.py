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

Every 1/(1-r^2) is 1/((1-r)(1+r)), exact to rounding as r -> 1.  `_phiphi`
is the one phi-phi expression, of the 3x3 builders and of `phiphi_entries`.
The *_trace and *_definitional functions are operator-algebra cross-checks.

The monotone family is evaluated as the coefficient pair
(1/(1-r^2), g((1-r)/(1+r)) / (1+r)) multiplying (dr^2, dn^2), where
g(t) = 1/f(t) and f is the operator-monotone function of the chosen kind.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .derivatives import (
    atanh_tail,
    check_method,
    coeff_k,
    coeff_k_tilde,
    new_log_derivative,
    require_invertible,
    require_working_r,
    sld,
)
from .phasespace import husimi, husimi_partial
from .quadrature import sphere_integrate
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

_PARAMS = (ParamIndex.R, ParamIndex.THETA, ParamIndex.PHI)


def _phiphi(angular: float, r: float, st: float) -> float:
    """The phi-phi entry angular * r^2 sin^2 theta, with st = sin(theta): the
    one expression both `_angular_block` and `phiphi_entries` read."""
    return angular * r * r * st ** 2


def _angular_block(r: float, theta: float, radial: float, angular: float) -> np.ndarray:
    """diag(radial, angular*r^2, angular*r^2 sin^2 theta)."""
    return np.diag([radial, angular * r * r, _phiphi(angular, r, math.sin(theta))])


def _inv_one_minus_r2(r: float) -> float:
    """1/(1 - r^2); 1 - r is exact near r = 1, where 1 - r*r is not."""
    return 1.0 / ((1.0 - r) * (1.0 + r))


# the angular coefficients of the new and Husimi closed forms, from K = coeff_k(r)
def _new_angular(k: float, r: float) -> float:
    return 9.0 * k ** 2 / (16.0 * r ** 6)


def _husimi_angular(k: float, r: float) -> float:
    return k / (4.0 * r ** 3)


def _gram(rho: np.ndarray, ls) -> np.ndarray:
    """g_ij = tr(rho (L_i L_j + L_j L_i)/2) for three operators L_i."""
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            sym = ls[i] @ ls[j] + ls[j] @ ls[i]
            g[i, j] = g[j, i] = 0.5 * np.trace(rho @ sym).real
    return g


def new_metric(state: QubitState) -> np.ndarray:
    """Metric built from the phase-space logarithmic derivatives, in closed
    form: diagonal in (r, theta, phi)."""
    require_working_r(state.r, "new_metric")
    r, th = state.r, state.theta
    u = atanh_tail(r, "new_metric")
    kt2 = coeff_k_tilde(r, u) ** 2
    radial = (9.0 - 5.0 * r * r) * kt2 / (4.0 * r ** 6)
    return _angular_block(r, th, radial, _new_angular(coeff_k(r, u), r))


def sld_metric(state: QubitState) -> np.ndarray:
    """Metric of the symmetric logarithmic derivative: diag(1/(1-r^2), r^2,
    r^2 sin^2 theta)."""
    r = state.r
    require_invertible(r, "sld_metric")
    return _angular_block(r, state.theta, _inv_one_minus_r2(r), 1.0)


def sld_metric_trace(state: QubitState) -> np.ndarray:
    """sld_metric assembled from the operator solution (cross-check path)."""
    return _gram(density_matrix(state), [sld(state, k) for k in _PARAMS])


def new_metric_trace(state: QubitState) -> np.ndarray:
    """new_metric assembled as g_ij = tr(rho (L_i L_j + L_j L_i)/2) from the
    closed-form L_k (cross-check path)."""
    return _gram(density_matrix(state), [new_log_derivative(state, k) for k in _PARAMS])


def deviation_h_definitional(state: QubitState, k: ParamIndex) -> np.ndarray:
    """derivatives.deviation_h evaluated as d_rho - (rho L_k + L_k rho)/2
    with the closed-form L_k (cross-check path)."""
    rho, L = density_matrix(state), new_log_derivative(state, k)
    return d_rho(state, k) - 0.5 * (rho @ L + L @ rho)


def phiphi_entries(r: float, st: float, u: float | None = None) -> tuple[float, float, float, float]:
    """The phi-phi entries of the new, SLD, RLD and Husimi metrics at r, with
    st = sin(theta) and u = atanh_tail(r) if given, bit for bit those of the 3x3
    closed forms.  r must lie in the new metric's working range, as theirs do."""
    require_working_r(r, "new_metric")
    k = coeff_k(r, u)
    new, rld, husimi = _new_angular(k, r), _inv_one_minus_r2(r), _husimi_angular(k, r)
    return _phiphi(new, r, st), _phiphi(1.0, r, st), _phiphi(rld, r, st), _phiphi(husimi, r, st)


def rld_metric(state: QubitState) -> np.ndarray:
    """Metric of the right logarithmic derivative, Re tr(d_i rho rho^{-1} d_j rho)
    = d_i n . d_j n / (1 - r^2), in closed form diag(c, c r^2, c r^2 sin^2 theta)
    with c = 1/((1 - r)(1 + r)): the SLD metric, its angular block scaled by c."""
    require_invertible(state.r, "rld_metric")
    c = _inv_one_minus_r2(state.r)
    return _angular_block(state.r, state.theta, c, c)


def _f_kubo_mori(t: float) -> float:
    if abs(t - 1.0) < 1e-8:
        # (t-1)/log t has a removable singularity at t = 1
        u = t - 1.0
        return 1.0 + u / 2.0 - u * u / 12.0
    return (t - 1.0) / math.log(t)


# each name's operator-monotone function f, with f(1) = 1 and f(t) = t f(1/t)
MONOTONE_SPECS: dict[str, Callable[[float], float]] = {
    "SLD": lambda t: 0.5 * (1.0 + t),
    "RLD": lambda t: 2.0 * t / (1.0 + t),
    "KuboMori": _f_kubo_mori,
}


def monotone_metric(f: Callable[[float], float], r: float) -> tuple[float, float]:
    """(radial, angular) coefficients of dr^2 and dn^2 for the monotone
    metric generated by f, one of MONOTONE_SPECS."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"monotone_metric requires 0 < r < 1, got {float(r)!r}")
    t = (1.0 - r) / (1.0 + r)
    return _inv_one_minus_r2(r), 1.0 / f(t) / (1.0 + r)


def husimi_classical_metric(state: QubitState, method: str = "closed") -> np.ndarray:
    """Classical Fisher metric of the Husimi density over the sphere.

    `method="quadrature"` evaluates E_Q[d_i log Q d_j log Q] directly.
    """
    check_method(method)
    require_working_r(state.r, "husimi_classical_metric")
    r, th = state.r, state.theta
    if method == "quadrature":
        q = husimi(state)
        dq = [husimi_partial(state, k) for k in _PARAMS]

        def integrand(t1, p1):
            d = np.stack([f(t1, p1) for f in dq], axis=-1)
            return d[..., :, None] * d[..., None, :] / q(t1, p1)[..., None, None]

        return sphere_integrate(integrand, state.bloch)
    u = atanh_tail(r, "husimi_classical_metric")
    return _angular_block(r, th, -coeff_k_tilde(r, u) / (2.0 * r ** 3), _husimi_angular(coeff_k(r, u), r))


def measurement_fisher(state: QubitState, povm) -> float:
    """Classical Fisher information of the frozen measurement for phi.

    `povm` is a `measurement.PovmFamily`.  Its elements are held at
    the family's construction point; the phi-derivative acts through the
    state only.  The integral runs over the family's grid: its own `spec`,
    split at its discontinuities.  The family's mass check on the grid runs last.
    """
    g = povm.grid()
    fisher = fisher_integral(g, state)
    povm.require_unit_mass(g.moment("x11", 0))
    return fisher


def require_braunstein_caves(fisher: float, sld: float) -> None:
    """Braunstein & Caves (1994): a measurement's Fisher entry is at most the SLD
    entry, so an excess over 1e-9 relative is a quadrature error: DomainError."""
    if not fisher <= sld + 1e-9 * abs(sld):
        raise DomainError(f"Braunstein-Caves fails: the measured Fisher entry {fisher!r} exceeds the "
                          f"SLD entry {sld!r} by {(fisher - sld) / sld if sld else math.inf:.3e} relative")


def fisher_integral(g, state: QubitState) -> float:
    """The Fisher integral over grid g's nodes at the state.  As rho = I/2 +
    r d_r rho, the outcome density is p = x11 + r B, B = tr(d_r rho Pi), and
    its phi-derivative r E, with E = tr(d_phi rho Pi) at r = 1; the integral
    is r^2 times that of E^2 / p.  A node with p <= 0 adds 0, or raises naming
    its abscissa where r E != 0; with p > 0 throughout nothing is masked, and
    with p > 0 nowhere the integral raises."""
    r = state.r
    b = g.trace(d_rho(state, ParamIndex.R))
    e = g.trace(d_rho(QubitState(1.0, state.theta, state.phi), ParamIndex.PHI))
    p, num = g.x11 + r * b, e * e
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
