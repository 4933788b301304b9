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
I1, I2 and C's off-diagonal integral are free of r: `bounds_sweep` builds
them, the family and its grid once per sweep, and the rest per row.

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

`metric_report` gathers every metric at one state point, with the
measurement-Fisher entry of the Gaussian family the sweep uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import _rho_inverse, coeff_h3r, deviation_h, new_log_derivative
from .measurement import (
    EstimationContext,
    FamilyGrid,
    PovmFamily,
    _COS_MIN,
    _second_moment,
    _sign_conditions_ok,
    estimator_moments,
    gaussian_sharp_family,
    outcome_density_values,
)
from .metrics import (
    MONOTONE_SPECS,
    _fisher_integral,
    _rld_entry,
    husimi_classical_metric,
    measurement_fisher,
    monotone_metric,
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
    return _ab(p.grid(spec), density_matrix(ctx.state), ctx.state.phi)


def _ab(g: FamilyGrid, rho: np.ndarray, phi: float) -> tuple[float, float]:
    """(a, b) from the family grid and the state's rho and azimuth."""
    tr_dpi = g.d_trace(rho)
    a = phi * g.integrate(tr_dpi)
    b = 1.0 - g.integrate(g.x * tr_dpi)
    return float(a.real), float(b.real)


def _r_free_integrals(ctx: EstimationContext, p: PovmFamily, g: FamilyGrid):
    """I1, I2 and C's off-diagonal integral, all free of r."""
    mu = p.center
    phi = ctx.state.phi
    cos_c = math.cos(phi)
    below = slice(None, int(np.searchsorted(g.x, mu)))
    above = slice(below.stop, None)
    I1 = float(g.w[below] @ ((g.x[below] - mu) * g.x11[below] + ctx.eps * g.y12[below] / cos_c))
    I2 = float(g.w[above] @ ((g.x[above] - phi) * g.x11[above]))
    offdiag = g.integrate((g.x - phi) * (math.sin(phi) * g.x12 + cos_c * g.y12))
    return I1, I2, offdiag


def _squared_bracket(c: float, h3: float, st: float, integral) -> float:
    """(c - 2 h3 sin(theta) integral)^2: C, or C_max with I1 - I2 as integral."""
    return float((c - 2.0 * h3 * st * integral) ** 2)


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
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def bound_Cmax(
    ctx: EstimationContext, p: PovmFamily, spec: QuadSpec | None = None
) -> CmaxBreakdown:
    """Maximized bound with its half-window moments I1 and I2."""
    a, b = ab_coefficients(ctx, p, spec)
    c = a + b
    I1, I2, offdiag = _r_free_integrals(ctx, p, p.grid(spec))
    h3 = coeff_h3r(ctx.state.r)
    st = math.sin(ctx.state.theta)
    return CmaxBreakdown(
        a=a,
        b=b,
        c=c,
        I1=I1,
        I2=I2,
        h3r=h3,
        C=_squared_bracket(c, h3, st, offdiag),
        C_max=_squared_bracket(c, h3, st, I1 - I2),
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

    variance = _second_moment(g, q, phi)
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
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


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
    signed slack v*g - C.  Failed rows are marked and the sweep continues;
    at sin(theta) = 0, where the phi-phi entries vanish, every row in the
    working range fails.

    Once per sweep, at the first valid state: the family (it reads only
    phi, eps and sigma), its grid, I1, I2 and C's off-diagonal integral; a
    failed build is retried, and so reported, on every valid row.  Per row:
    the closed-form metrics (phase-space first, so r = 1 names its range),
    a, b, one tr(rho Pi) for both v and Fisher, tr(d_phi rho Pi) and the RLD
    (phi, phi) entry, each bit for bit what the single-state functions give.
    """
    rows = []
    grid = None
    for r in r_values:
        r = float(r)
        try:
            state = QubitState(r, theta, phi)
            ctx = EstimationContext(state, eps=eps)
            if grid is None:
                family = gaussian_sharp_family(ctx, sigma=sigma)
                family_grid = family.grid(spec)
                I1, I2, offdiag = _r_free_integrals(ctx, family, family_grid)
                grid = family_grid
            g = float(new_metric(state)[2, 2])
            st = math.sin(state.theta)
            if st == 0.0:
                raise DomainError(
                    "sin(theta) = 0: the phi-phi metric entries vanish, so the phi bounds are undefined"
                )
            rho = density_matrix(state)
            drho = d_rho(state, ParamIndex.PHI)
            a, b = _ab(grid, rho, state.phi)
            h3 = coeff_h3r(r)
            q = grid.trace(rho).real
            variance = _second_moment(grid, q, state.phi)
            fisher = _fisher_integral(grid, q, grid.trace(drho).real)
            rows.append(
                SweepRow(
                    r=r,
                    B_max=_squared_bracket(a + b, h3, st, I1 - I2) / g,
                    B_SLD=1.0 / float(sld_metric(state)[2, 2]),
                    B_RLD=1.0 / float(_rld_entry(_rho_inverse(rho), drho, drho)),
                    B_Fisher=1.0 / fisher,
                    B_Husimi=1.0 / float(husimi_classical_metric(state)[2, 2]),
                    v=variance,
                    vg_minus_C=variance * g - _squared_bracket(a + b, h3, st, offdiag),
                )
            )
        except (DomainError, ValueError) as exc:
            rows.append(SweepRow(r=r, error=str(exc)))
    return rows


@dataclass(frozen=True)
class MetricReport:
    """All metric components at one state point."""

    r: float
    theta: float
    phi: float
    new_metric: np.ndarray
    sld_metric: np.ndarray
    rld_metric: np.ndarray
    husimi_classical: np.ndarray
    monotone: dict[str, tuple[float, float]]
    measurement_fisher_phiphi: float | None = None

    def as_dict(self) -> dict:
        out = {
            "r": self.r,
            "theta": self.theta,
            "phi": self.phi,
            "new_metric": self.new_metric.tolist(),
            "sld_metric": self.sld_metric.tolist(),
            "rld_metric": self.rld_metric.tolist(),
            "husimi_classical": self.husimi_classical.tolist(),
        }
        for name, (radial, angular) in self.monotone.items():
            out[f"monotone_{name}"] = [radial, angular]
        out["measurement_fisher_phiphi"] = self.measurement_fisher_phiphi
        return out


def metric_report(
    state: QubitState,
    eps: float = 0.0,
    sigma: float = 3.0,
    spec: QuadSpec | None = None,
) -> MetricReport:
    """Assemble every metric at one point.

    The measurement-Fisher entry uses the Gaussian sharp family at the
    state's azimuth, integrated with `spec`; it is omitted (None) when
    cos(phi) ~ 0, where that construction is undefined.  A bad sigma or eps
    raises at every phi, and so does any other error of the family or the
    integral.
    """
    # in the order the family itself checks them
    if not math.isfinite(eps):
        raise DomainError("eps must be finite")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    fisher = None
    if abs(math.cos(state.phi)) >= _COS_MIN:
        ctx = EstimationContext(state, eps=eps)
        fisher = measurement_fisher(state, gaussian_sharp_family(ctx, sigma=sigma), spec)
    return MetricReport(
        r=state.r,
        theta=state.theta,
        phi=state.phi,
        new_metric=new_metric(state),
        sld_metric=sld_metric(state),
        rld_metric=rld_metric(state),
        husimi_classical=husimi_classical_metric(state),
        monotone={name: monotone_metric(ms, state.r) for name, ms in MONOTONE_SPECS.items()},
        measurement_fisher_phiphi=fisher,
    )
