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

I1 and I2 being half-window moments of x11.  For the saturating Gaussian
family C = C_max.

Every integral here is a contraction over the family's `FamilyGrid`, which
is split at the window center, so I1 and I2 are sums over its two halves.

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
signed slack per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import coeff_h3r, deviation_h, new_log_derivative
from .measurement import (
    EstimationContext,
    FamilyGrid,
    PovmFamily,
    _sign_conditions_ok,
    estimator_moments,
    gaussian_sharp_family,
    outcome_density_values,
)
from .metrics import (
    husimi_classical_metric,
    measurement_fisher,
    new_metric,
    rld_metric,
    sld_metric,
)
from .qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix
from .quadrature import QuadSpec

E3 = np.array([0.0, 0.0, 1.0])

UNBIASEDNESS_PRECHECK_TOL = 1e-6


@dataclass(frozen=True)
class BoundProblem:
    """Inputs of the general bilinear inequality.

    Y weights the estimator deviations, Z weights the deviation operators.
    The outcome space carries an estimator only for phi; the other two
    parameters are treated as known (their trivial estimators contribute
    zero deviation), which reduces Y (but not Z) to its third component.
    """

    ctx: EstimationContext
    povm: PovmFamily
    Y: np.ndarray | None = None
    Z: np.ndarray | None = None

    def __post_init__(self):
        for name, vec in (("Y", self.Y), ("Z", self.Z)):
            vec = E3.copy() if vec is None else np.asarray(vec, dtype=float)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, vec)
        if not (np.any(self.Y) or np.any(self.Z)):
            raise ValueError("Y and Z must not both be zero")


def ab_coefficients(
    ctx: EstimationContext, p: PovmFamily, spec: QuadSpec | None = None
) -> tuple[float, float]:
    """The unbiasedness coefficients (a, b) by quadrature.

    The derivative is the total parameter derivative of the matrix elements;
    the window limits are held fixed, so for edge-supported families b picks
    up the edge value of x11 through integration by parts.
    """
    g = p.grid(spec)
    tr_dpi = g.d_trace(density_matrix(ctx.state))
    a = ctx.state.phi * g.integrate(tr_dpi)
    b = 1.0 - g.integrate(g.x * tr_dpi)
    return float(a.real), float(b.real)


def gaussian_b_reference(r: float, theta: float, sigma: float = 3.0) -> float:
    """Closed form of b for the Gaussian sharp family (erf expression).

    b = 2 pi x11(edge) + r sin(theta) m1, with m1 the first absolute moment
    of the truncated Gaussian profile.
    """
    edge_exp = math.exp(-math.pi ** 2 / (2.0 * sigma * sigma))
    erf_term = math.erf(math.pi / (sigma * math.sqrt(2.0)))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * erf_term)
    edge = 2.0 * math.pi * norm * edge_exp
    m1 = 2.0 * sigma * sigma * norm * (1.0 - edge_exp)
    return edge + r * math.sin(theta) * m1


def bound_C(ctx: EstimationContext, p: PovmFamily, spec: QuadSpec | None = None) -> float:
    """The squared bracket bounding v * g from below for this family."""
    a, b = ab_coefficients(ctx, p, spec)
    return _squared_bracket(ctx, p.grid(spec), a, b)


def _squared_bracket(ctx: EstimationContext, g: FamilyGrid, a: float, b: float) -> float:
    st = math.sin(ctx.state.theta)
    phi = ctx.state.phi
    h3 = coeff_h3r(ctx.state.r)
    integral = g.integrate((g.x - phi) * (math.sin(phi) * g.x12 + math.cos(phi) * g.y12))
    return float((a + b - 2.0 * h3 * st * integral) ** 2)


@dataclass(frozen=True)
class CmaxBreakdown:
    """Pieces of the maximized bound.  c >= 0 and the off-diagonal sign
    pattern are preconditions of the maximization step; violations are
    flagged, in which case C_max is not an upper bound for C."""

    a: float
    b: float
    c: float
    I1: float
    I2: float
    h3r: float
    C: float
    C_max: float
    sign_conditions_ok: bool
    c_nonneg: bool

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "I1": self.I1,
            "I2": self.I2,
            "h3r": self.h3r,
            "C": self.C,
            "C_max": self.C_max,
            "sign_conditions_ok": self.sign_conditions_ok,
            "c_nonneg": self.c_nonneg,
        }


def bound_Cmax(
    ctx: EstimationContext, p: PovmFamily, spec: QuadSpec | None = None
) -> CmaxBreakdown:
    """Maximized bound with its half-window moments I1 and I2."""
    a, b = ab_coefficients(ctx, p, spec)
    c = a + b
    mu = p.center
    phi = ctx.state.phi
    cos_c = math.cos(ctx.construct_phi)

    g = p.grid(spec)
    below = slice(None, int(np.searchsorted(g.x, mu)))
    above = slice(below.stop, None)
    I1 = float(g.w[below] @ ((g.x[below] - mu) * g.x11[below] + ctx.eps * g.y12[below] / cos_c))
    I2 = float(g.w[above] @ ((g.x[above] - phi) * g.x11[above]))

    h3 = coeff_h3r(ctx.state.r)
    st = math.sin(ctx.state.theta)
    c_max = (c - 2.0 * h3 * st * (I1 - I2)) ** 2
    return CmaxBreakdown(
        a=a,
        b=b,
        c=c,
        I1=I1,
        I2=I2,
        h3r=h3,
        C=_squared_bracket(ctx, g, a, b),
        C_max=float(c_max),
        sign_conditions_ok=_sign_conditions_ok(p, ctx),
        c_nonneg=c >= 0.0,
    )


@dataclass(frozen=True)
class TheoremEvaluation:
    """Both sides of the bilinear inequality, with the bracket's imaginary
    part reported (it should vanish up to quadrature noise)."""

    lhs: float
    rhs: float
    bracket: float
    bracket_imag: float


def theorem_general(problem: BoundProblem, spec: QuadSpec | None = None) -> TheoremEvaluation:
    """Evaluate (Y^t V Y)(Z^t G Z) and |Y^t (A+B) Z - tr int T_xi T_h Pi|^2.

    G is the phase-space metric; the family depends on the parameters only
    through phi, so A and B differ from the identity only in their phi
    column.
    """
    ctx, p, Y, Z = problem.ctx, problem.povm, problem.Y, problem.Z
    state = ctx.state
    phi = state.phi

    mean, variance = estimator_moments(ctx, p, spec)
    target = phi + ctx.eps
    if abs(mean - target) > UNBIASEDNESS_PRECHECK_TOL:
        raise DomainError(
            f"family is not unbiased at this context: E[phi_hat] = {float(mean)!r}, "
            f"expected {float(target)!r}"
        )

    g = new_metric(state, method="closed")
    lhs = (Y[2] ** 2 * variance) * float(Z @ g @ Z)

    grid = p.grid(spec)
    tr_dpi = grid.d_trace(density_matrix(state))
    int_tr = grid.integrate(tr_dpi)
    int_x_tr = grid.integrate(grid.x * tr_dpi)

    # With trivial estimators for r and theta, the A and B contributions in
    # the phi column cancel exactly for j != 3, leaving the identity except
    # in the (phi, phi) entry.
    ab_matrix = np.eye(3, dtype=complex)
    ab_matrix[2, 2] = phi * int_tr + 1.0 - int_x_tr

    t_h = sum(Z[k] * deviation_h(state, ParamIndex(k + 1)) for k in range(3))
    cross = Y[2] * grid.integrate((grid.x - phi) * grid.trace(t_h))

    bracket = complex(Y @ ab_matrix @ Z) - complex(cross)
    return TheoremEvaluation(
        lhs=float(lhs),
        rhs=float(abs(bracket) ** 2),
        bracket=float(bracket.real),
        bracket_imag=float(abs(bracket.imag)),
    )


@dataclass(frozen=True)
class AuditReport:
    """Numerical residuals for each step of the derivation, for Y = Z = e3.

    `fixed_window_residual` is lhs - (a+b) of the identity obtained by
    differentiating unbiasedness with fixed limits; for rigidly translating
    families it equals minus `boundary_term`.  The Schwarz chain is
    schwarz_lhs >= schwarz_mid unconditionally; schwarz_mid >= schwarz_rhs
    only when the fixed-window identity actually holds, so `slack_inner` may
    be negative for edge-supported families.
    """

    fixed_window_lhs: float
    fixed_window_rhs: float
    fixed_window_residual: float
    boundary_term: float
    imag_residual: float
    cross_term_real: float
    bracket: float
    cross_identity_residual: float
    schwarz_lhs: float
    schwarz_mid: float
    schwarz_rhs: float
    slack_outer: float
    slack_inner: float
    quadratic_form_residual: float
    variance: float
    metric_phiphi: float
    vg_minus_C: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def audit_derivation(
    ctx: EstimationContext, p: PovmFamily, spec: QuadSpec | None = None
) -> AuditReport:
    """Evaluate every identity of the 1-D derivation chain numerically."""
    state = ctx.state
    phi = state.phi
    lo, hi = p.window

    g = p.grid(spec)
    x = g.x
    rho = density_matrix(state)
    drho = d_rho(state, ParamIndex.PHI)

    q = g.trace(rho).real
    a, b = ab_coefficients(ctx, p, spec)

    # identity from differentiating unbiasedness with fixed limits
    lhs_fw = g.integrate((x - phi) * g.trace(drho))
    residual_fw = lhs_fw.real - (a + b)

    q_hi = float(outcome_density_values(ctx, p, np.array([hi]))[0])
    q_lo = float(outcome_density_values(ctx, p, np.array([lo]))[0])
    boundary = (hi - phi) * q_hi - (lo - phi) * q_lo

    h3 = deviation_h(state, ParamIndex.PHI)
    bracket_c = (a + b) - g.integrate((x - phi) * g.trace(h3))
    bracket = float(bracket_c.real)
    imag_residual = float(abs(bracket_c.imag))

    l3 = new_log_derivative(state, ParamIndex.PHI)
    cross = g.integrate((x - phi) * g.trace(rho @ l3))
    cross_real = float(cross.real)

    variance = float(g.integrate((x - phi) ** 2 * q))
    quad_tl = float(g.integrate(g.trace(l3 @ rho @ l3)).real)
    g_phiphi = float(new_metric(state, method="closed")[2, 2])

    schwarz_lhs = variance * quad_tl
    schwarz_mid = float(abs(cross) ** 2)
    schwarz_rhs = float(abs(bracket_c) ** 2)

    return AuditReport(
        fixed_window_lhs=float(lhs_fw.real),
        fixed_window_rhs=a + b,
        fixed_window_residual=float(residual_fw),
        boundary_term=float(boundary),
        imag_residual=imag_residual,
        cross_term_real=cross_real,
        bracket=bracket,
        cross_identity_residual=cross_real - bracket,
        schwarz_lhs=schwarz_lhs,
        schwarz_mid=schwarz_mid,
        schwarz_rhs=schwarz_rhs,
        slack_outer=schwarz_lhs - schwarz_mid,
        slack_inner=schwarz_mid - schwarz_rhs,
        quadratic_form_residual=abs(quad_tl - g_phiphi),
        variance=variance,
        metric_phiphi=g_phiphi,
        vg_minus_C=variance * g_phiphi - schwarz_rhs,
    )


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
        return {
            "r": self.r,
            "B_max": self.B_max,
            "B_SLD": self.B_SLD,
            "B_RLD": self.B_RLD,
            "B_Fisher": self.B_Fisher,
            "B_Husimi": self.B_Husimi,
            "v": self.v,
            "vg_minus_C": self.vg_minus_C,
            "error": self.error,
        }


def bounds_sweep(
    r_values,
    theta: float = math.pi / 2,
    phi: float = 3.0 * math.pi / 4,
    eps: float = 0.0,
    sigma: float = 3.0,
    spec: QuadSpec | None = None,
) -> list[SweepRow]:
    """Variance bounds versus r for the Gaussian sharp family.

    Per row: B_max = C_max / g with g the phi-phi component of the
    phase-space metric, the inverse phi-phi components of the SLD, RLD,
    measurement-Fisher and Husimi metrics, the estimator variance, and the
    signed slack v*g - C.  Failed rows are marked and the sweep continues.
    """
    rows = []
    for r in r_values:
        r = float(r)
        try:
            state = QubitState(r, theta, phi)
            ctx = EstimationContext(state, eps=eps)
            family = gaussian_sharp_family(ctx, sigma=sigma)
            breakdown = bound_Cmax(ctx, family, spec)
            g = float(new_metric(state)[2, 2])
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
