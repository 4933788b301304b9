"""Estimation-error bound machinery and the step-by-step derivation audit.

For a single unknown azimuth phi measured through a family Pi(phi_hat) on
the moving window [mu - pi, mu + pi], mu = phi + eps, the two unbiasedness
coefficients are

    a = phi * integral tr(rho dPi/dphi) dphi_hat
    b = 1 - integral phi_hat tr(rho dPi/dphi) dphi_hat,

where dPi/dphi is the total parameter derivative of the matrix elements with
the integration limits held as written (the window itself is NOT
differentiated).  The quantity bounded from below is

    C = ( a + b - 2 h3 sin(theta) integral (phi_hat - phi)
          (sin(phi) x12 + cos(phi) y12) dphi_hat )^2,

with h3 the deviation amplitude coeff_h3r(r), and its maximized form under
the sign conditions on the off-diagonals is

    C_max = ( a + b - 2 h3 sin(theta) (I1 - I2) )^2,

I1 and I2 being half-window moments of x11.  Every integral here is a
contraction over the family's `FamilyGrid`, which is split at the window
center; a, b, v, I1, I2 and C's integrals are read from its element moments.

Two routes evaluate the bracket, kept apart: the closed one above,
`_squared_bracket` over `_r_free_integrals`, for `bound_Cmax` and
`bounds_sweep`; and `_operator_bracket`, which contracts the deviation
operators h_k with the family, for `theorem_general` and
`audit_derivation`.  `test_closed_and_operator_brackets_agree` ties them.

The audit evaluates each identity of the underlying derivation numerically.
Its key diagnostic: differentiating the unbiasedness integral with fixed
limits drops the boundary contribution of the moving window,

    boundary = (hi - phi) q(hi) - (lo - phi) q(lo),

which is nonzero for families whose elements do not vanish at the window
edges (the Gaussian family among them).  The audit reports the fixed-window
identity residual and this boundary term side by side, and evaluates the
unconditional Cauchy-Schwarz chain, whose outer inequality must hold for
every positive family regardless of boundary effects.  The inequality
v * g >= C is deliberately NOT asserted anywhere; the sweep reports its
signed slack per row.  Measured, not asserted: on the default Gaussian
sweep C = C_max and v g - C < 0 (-0.66 to -1.69), the gap being the dropped
boundary term 2 pi x11(mu +- pi) = 0.685; the tapered family removes that
term, and v g - C >= 0 (7.6e-3 to 0.63, r in {0.2, 0.5, 0.8, 0.95}, k in
{1, 3}); B_Fisher = B_SLD / (q^2 m0), q = offdiag_scale, m0 = sum of x11.  For
a sharp family at the state's azimuth (a = 0), dm = r sin(theta) (I2 - I1),
beta = b - dm and sqrt(kappa) = 1 + 2 h3 / r, C_max = (dm sqrt(kappa) +
beta)^2, so B_max = (dm + beta / sqrt(kappa))^2 / g_SLD (tested as an
identity).  dm is d E[phi_hat] / d phi, family held fixed, at offdiag_scale
= 1 only; beta is the dropped boundary term.  Where it is 0 (tapered), B_max
is the SLD Cramer-Rao bound dm^2 / g_SLD of an estimator with that bias.

`metric_report` gathers every metric at one state point, with the
measurement-Fisher entry of the sweep's Gaussian family, read as a row reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .derivatives import atanh_tail, coeff_h3r, deviation_h, new_log_derivative
from .measurement import (
    EstimationContext,
    FamilyGrid,
    PovmFamily,
    gaussian_inputs,
    gaussian_sharp_family,
    interior_scan,
    moment_integrals,
    trace_with_elements,
)
from .metrics import (
    MONOTONE_SPECS,
    husimi_classical_metric,
    monotone_metric,
    new_metric,
    phiphi_entries,
    require_braunstein_caves,
    rld_metric,
    sld_metric,
)
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix
from .quadrature import DEFAULT_SPEC, QuadSpec

E3 = np.array([0.0, 0.0, 1.0])

UNBIASEDNESS_PRECHECK_TOL = 1e-6


def ab_coefficients(ctx: EstimationContext, p: PovmFamily) -> tuple[float, float]:
    """The unbiasedness coefficients (a, b) by quadrature.

    The derivative is the total parameter derivative of the matrix elements;
    the window limits are held fixed, so for edge-supported families b picks
    up the edge value of x11 through integration by parts.  Then the mass check.
    """
    g = p.grid()
    a, b = moment_integrals(g, ctx.state)(ctx.state.r)[:2]
    p.require_unit_mass(g.moment("x11", 0))
    return a, b


def _r_free_integrals(ctx: EstimationContext, g: FamilyGrid):
    """I1, I2 and C's off-diagonal integral, all free of r."""
    phi = ctx.state.phi
    cos_c = math.cos(phi)
    m, d = g.moment, g.center - phi  # about phi, a first moment is m1 + d m0
    I1 = m("x11", 1, -1) + ctx.eps * m("y12", 0, -1) / cos_c
    I2 = m("x11", 1, 1) + d * m("x11", 0, 1)
    offdiag = math.sin(phi) * (m("x12", 1) + d * m("x12", 0)) + cos_c * (m("y12", 1) + d * m("y12", 0))
    return I1, I2, offdiag


def _squared_bracket(c: float, h3: float, st: float, integral) -> float:
    """(c - 2 h3 sin(theta) integral)^2: C, or C_max with I1 - I2 as integral."""
    return float((c - 2.0 * h3 * st * integral) ** 2)


def _operator_bracket(g: FamilyGrid, state: QubitState, c: float, Y, Z):
    """Y^t (A+B) Z - Y_phi integral (phi_hat - phi) tr(sum_k Z_k h_k Pi), c = a + b.

    The family depends on the parameters only through phi, and r and theta
    have trivial estimators, so A + B is the identity except in its
    (phi, phi) entry c.  An h_k of zero weight is not built.
    """
    h = (Z[k] * deviation_h(state, ParamIndex(k + 1)) for k in range(3) if Z[k])
    t_h = sum(h, np.zeros((2, 2)))
    yz = Y[:2] @ Z[:2] + Y[2] * Z[2] * c
    return yz - Y[2] * g.integrate((g.x - state.phi) * g.trace(t_h))


def bound_Cmax(ctx: EstimationContext, p: PovmFamily) -> dict:
    """Maximized bound with its half-window moments I1 and I2.

    Returns the dict a, b, c = a + b, I1, I2, h3r, C, C_max,
    sign_conditions_ok and c_nonneg.  c >= 0 and the off-diagonal sign
    pattern are preconditions of the maximization step; violations are
    flagged, in which case C_max is not an upper bound for C.  Then the mass check.
    """
    g = p.grid()
    a, b = moment_integrals(g, ctx.state)(ctx.state.r)[:2]
    c = a + b
    I1, I2, offdiag = _r_free_integrals(ctx, g)
    h3 = coeff_h3r(ctx.state.r)
    st = math.sin(ctx.state.theta)
    p.require_unit_mass(g.moment("x11", 0))
    return {
        "a": a,
        "b": b,
        "c": c,
        "I1": I1,
        "I2": I2,
        "h3r": h3,
        "C": _squared_bracket(c, h3, st, offdiag),
        "C_max": _squared_bracket(c, h3, st, I1 - I2),
        "sign_conditions_ok": interior_scan(p, ctx)[1],
        "c_nonneg": c >= 0.0,
    }


def theorem_general(ctx: EstimationContext, p: PovmFamily, Y=None, Z=None) -> dict:
    """Evaluate (Y^t V Y)(Z^t G Z) and |Y^t (A+B) Z - tr int T_xi T_h Pi|^2,
    G the phase-space metric, the bracket from `_operator_bracket`.

    Y weights the estimator deviations, Z weights the deviation operators;
    each defaults to e3 and must be a finite 3-vector, and they must not both
    be zero.  The outcome space carries an estimator only for phi; the other
    two parameters are treated as known (their trivial estimators contribute
    zero deviation), which reduces Y (but not Z) to its third component.
    The family's mass check runs before its unbiasedness precheck, since an
    unresolved rule moves E[phi_hat] too.  Returns the dict lhs, rhs and bracket.
    """
    weights = []
    for name, vec in (("Y", Y), ("Z", Z)):
        vec = E3.copy() if vec is None else np.asarray(vec, dtype=float)
        if vec.shape != (3,) or not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} must be a finite 3-vector")
        weights.append(vec)
    Y, Z = weights
    if not (np.any(Y) or np.any(Z)):
        raise ValueError("Y and Z must not both be zero")
    state = ctx.state

    grid = p.grid()
    a, b, mean, variance = moment_integrals(grid, state)(state.r)
    p.require_unit_mass(grid.moment("x11", 0))
    if abs(mean - ctx.center) > UNBIASEDNESS_PRECHECK_TOL:
        raise DomainError(
            f"family is not unbiased at this context: E[phi_hat] = {float(mean)!r}, "
            f"expected {float(ctx.center)!r}"
        )

    bracket = _operator_bracket(grid, state, a + b, Y, Z)
    g = new_metric(state)
    return {
        "lhs": float(Y[2] ** 2 * variance * float(Z @ g @ Z)),
        "rhs": float(abs(bracket) ** 2),
        "bracket": float(bracket),
    }


def audit_derivation(ctx: EstimationContext, p: PovmFamily) -> dict:
    """Evaluate every identity of the 1-D derivation chain numerically, for
    Y = Z = e3, then the family's mass check.

    Returns a dict, in this order:
    - fixed_window_lhs, fixed_window_rhs = a + b, and their difference
      fixed_window_residual, of the identity obtained by differentiating
      unbiasedness with fixed limits; for rigidly translating families the
      residual equals minus boundary_term, the moving window's edge term.
    - imag_residual, the bracket's imaginary part: always 0.0, since the
      operator bracket is real by construction.  The key stays because the
      audit's CSV output is pinned byte for byte.
    - cross_term_real, the real part of int (phi_hat - phi) tr(rho L_phi Pi),
      the bracket, and their difference cross_identity_residual.
    - schwarz_lhs >= schwarz_mid >= schwarz_rhs, the Cauchy-Schwarz chain,
      with slack_outer and slack_inner its two gaps.  The outer one holds
      unconditionally; the inner one only when the fixed-window identity
      actually holds, so slack_inner may be negative for edge-supported
      families.
    - quadratic_form_residual, |tr int L_phi rho L_phi Pi - g_phiphi|.
    - variance, metric_phiphi and vg_minus_C, the signed slack of v g >= C.
    """
    state = ctx.state
    phi = state.phi
    lo, hi = p.window

    g = p.grid()
    rho = density_matrix(state)
    drho = d_rho(state, ParamIndex.PHI)

    a, b, _, variance = moment_integrals(g, state)(state.r)
    c = a + b

    # identity from differentiating unbiasedness with fixed limits
    lhs_fw = g.integrate((g.x - phi) * g.trace(drho))

    q_hi, q_lo = trace_with_elements(rho, *p.elements(np.array([hi, lo]))[:3])

    bracket_c = _operator_bracket(g, state, c, E3, E3)
    bracket = float(bracket_c)

    l3 = new_log_derivative(state, ParamIndex.PHI)
    cross = g.integrate((g.x - phi) * g.trace(rho @ l3))
    cross_real = float(cross.real)

    quad_tl = float(g.integrate(g.trace(l3 @ rho @ l3)).real)
    g_phiphi = float(new_metric(state)[2, 2])

    schwarz_lhs = variance * quad_tl
    schwarz_mid = float(abs(cross) ** 2)
    schwarz_rhs = float(abs(bracket_c) ** 2)

    p.require_unit_mass(g.moment("x11", 0))
    return {
        "fixed_window_lhs": float(lhs_fw),
        "fixed_window_rhs": c,
        "fixed_window_residual": float(lhs_fw - c),
        "boundary_term": float((hi - phi) * q_hi - (lo - phi) * q_lo),
        "imag_residual": 0.0,
        "cross_term_real": cross_real,
        "bracket": bracket,
        "cross_identity_residual": cross_real - bracket,
        "schwarz_lhs": schwarz_lhs,
        "schwarz_mid": schwarz_mid,
        "schwarz_rhs": schwarz_rhs,
        "slack_outer": schwarz_lhs - schwarz_mid,
        "slack_inner": schwarz_mid - schwarz_rhs,
        "quadratic_form_residual": abs(quad_tl - g_phiphi),
        "variance": variance,
        "metric_phiphi": g_phiphi,
        "vg_minus_C": variance * g_phiphi - schwarz_rhs,
    }


@dataclass(frozen=True)
class SweepRow:
    """One row of the bound-comparison sweep; `error` marks failed rows."""

    r: float
    B_max: float = math.nan
    B_SLD: float = math.nan
    B_RLD: float = math.nan
    B_Fisher: float = math.nan
    B_Husimi: float = math.nan
    v: float = math.nan
    vg_minus_C: float = math.nan
    error: str | None = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def bounds_sweep(
    r_values,
    theta: float = math.pi / 2,
    phi: float = 3.0 * math.pi / 4,
    eps: float = 0.0,
    sigma: float = 3.0,
    spec: QuadSpec = DEFAULT_SPEC,
) -> list[SweepRow]:
    """Variance bounds versus r for the Gaussian sharp family.

    Per row: B_max = C_max / g with g the phi-phi component of the
    phase-space metric, the inverse phi-phi components of the SLD, RLD,
    measurement-Fisher and Husimi metrics, the estimator variance, and the
    signed slack v*g - C.  Failed rows are marked and the sweep continues;
    a row fails where one of its five phi-phi entries is zero or subnormal,
    as where sin(theta) == 0.0 or r^2 sin(theta)^2 underflows, since its
    bound 1/g would overflow to inf or lose digits.  A normal entry, however
    small, does not fail a row: the float nearest pi has sin = 1.2e-16, and
    its huge bounds are the true ones for that input.

    Once per sweep, before any row: one context at (theta, phi, eps), the
    family (`spec` becomes its rule), its grid, which needs a density > 0, I1,
    I2, C's off-diagonal integral, the r-free parts of a, b and v, and m0, the
    sum of x11.  A failed build is captured once, and every row whose own state
    (r, theta, phi) is valid reports it.  Per row, scalar arithmetic: the
    state's checks, one atanh tail (its range check names r = 1) for
    `metrics.phiphi_entries` and h3, a, b, v, and Fisher = r^2 sin^2(theta) m0
    (the sharp-family identity in `measurement`), then `require_braunstein_caves`
    and `family.require_unit_mass`.  Every cell is the single-state functions' bit for
    bit (B_Fisher: `metric_report`'s; `measurement_fisher`'s to rounding).
    """
    try:
        # every fixed-input integral reads the state's angles, never its r
        ctx = EstimationContext(QubitState(0.0, theta, phi), eps=eps)
        family, grid, m0 = _gaussian_family(ctx, sigma, spec)
        I1, I2, offdiag = _r_free_integrals(ctx, grid)
        integrals = moment_integrals(grid, ctx.state)
        st = math.sin(ctx.state.theta)
        fisher_unit = st * st * m0
        fixed_error = None
    except (DomainError, ValueError) as exc:
        fixed_error = str(exc)
    rows = []
    for r in r_values:
        r = float(r)
        try:
            QubitState(r, theta, phi)  # the row's own checks: finiteness, r, then theta
            if fixed_error is not None:
                rows.append(SweepRow(r=r, error=fixed_error))
                continue
            u = atanh_tail(r, "new_metric")
            g, g_sld, g_rld, g_husimi = phiphi_entries(r, st, u)
            a, b, _, variance = integrals(r)
            fisher = r * r * fisher_unit
            least = min(g, g_sld, g_rld, g_husimi, fisher)
            if not least >= sys.float_info.min:
                raise DomainError(f"the phi-phi entries vanish: r^2 sin(theta)^2 is {g_sld!r}, and the "
                                  f"entry {least!r} is zero or underflows below the smallest normal "
                                  "float, so the phi bounds are undefined")
            require_braunstein_caves(fisher, g_sld)
            family.require_unit_mass(m0)
            h3 = coeff_h3r(r, u)
            c_max = _squared_bracket(a + b, h3, st, I1 - I2)
            c = _squared_bracket(a + b, h3, st, offdiag)
            rows.append(SweepRow(
                r=r, B_max=c_max / g, B_SLD=1.0 / g_sld, B_RLD=1.0 / g_rld, B_Fisher=1.0 / fisher,
                B_Husimi=1.0 / g_husimi, v=variance, vg_minus_C=variance * g - c))
        except (DomainError, ValueError) as exc:
            rows.append(SweepRow(r=r, error=str(exc)))
    return rows


def _gaussian_family(ctx: EstimationContext, sigma: float, spec: QuadSpec):
    """The Gaussian sharp family at ctx on rule `spec`, its grid and m0, the sum
    of x11 (Fisher = r^2 sin^2(theta) m0); raises where x11 > 0 at no node."""
    family = replace(gaussian_sharp_family(ctx, sigma=sigma), spec=spec)
    grid = family.grid()
    if not np.any(grid.x11 > 0):
        raise DomainError("outcome density vanishes at every quadrature node")
    return family, grid, grid.moment("x11", 0)


def metric_report(
    state: QubitState,
    eps: float = 0.0,
    sigma: float = 3.0,
    spec: QuadSpec = DEFAULT_SPEC,
) -> dict:
    """Every metric at one point, as a dict: r, theta, phi, the new, SLD,
    RLD and Husimi-classical metrics as nested lists, monotone_<name> as the
    [radial, angular] pair of each of MONOTONE_SPECS, and
    measurement_fisher_phiphi.

    The measurement-Fisher entry is the Gaussian sharp family's at the state's
    azimuth on rule `spec`: r^2 sin^2(theta) m0, m0 the sum of x11 on the
    family's own grid, as a sweep row reads it, after the density check.  It is
    None when cos(phi) ~ 0, where that construction is undefined.  A bad sigma
    or eps raises at every phi, and so do the density check,
    `require_braunstein_caves` and then the family's `require_unit_mass`.
    """
    fisher = None
    if gaussian_inputs(state.phi, eps, sigma) is not None:
        family, _, m0 = _gaussian_family(EstimationContext(state, eps=eps), sigma, spec)
        st = math.sin(state.theta)
        fisher = state.r * state.r * (st * st * m0)
    out = {
        "r": state.r,
        "theta": state.theta,
        "phi": state.phi,
        "new_metric": new_metric(state).tolist(),
        "sld_metric": sld_metric(state).tolist(),
        "rld_metric": rld_metric(state).tolist(),
        "husimi_classical": husimi_classical_metric(state).tolist(),
    }
    for name, f in MONOTONE_SPECS.items():
        out[f"monotone_{name}"] = list(monotone_metric(f, state.r))
    out["measurement_fisher_phiphi"] = fisher
    if fisher is not None:
        require_braunstein_caves(fisher, out["sld_metric"][2][2])
        family.require_unit_mass(m0)
    return out
