"""Built-in oracle and invariant suite backing the `selftest` subcommand.

Each check recomputes a quantity through an independent route (finite
differences, closed forms, doubled quadrature panels, symmetry arguments)
and compares at the documented tolerance.  The pytest suite covers far more
ground; this module is the quick self-contained smoke screen shipped with
the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, derivatives, measurement, metrics, phasespace, quadrature, qubit

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _state_grid():
    return [
        qubit.QubitState(r, th, ph)
        for r in (0.1, 0.5, 0.9)
        for th in (PI / 6, PI / 2)
        for ph in (0.3, 3 * PI / 4)
    ]


def _ctx(r=0.5):
    return measurement.EstimationContext(qubit.QubitState(r, PI / 2, 3 * PI / 4))


def _check_state_algebra() -> CheckResult:
    worst = 0.0
    for s in _state_grid():
        rho = qubit.density_matrix(s)
        worst = max(worst, abs(np.trace(rho).real - 1.0))
        w, v = qubit.eig2(rho)
        worst = max(worst, abs(w[0] - (1 - s.r) / 2), abs(w[1] - (1 + s.r) / 2))
        recon = (v * w) @ v.conj().T
        worst = max(worst, float(np.max(np.abs(recon - rho))))
    return CheckResult("state algebra (trace, eigenvalues, reconstruction)", worst <= 1e-12,
                       f"worst residual {worst:.2e}")


def _check_d_rho_fd() -> CheckResult:
    s = qubit.QubitState(0.5, 1.1, 0.7)
    h = 1e-6
    worst = 0.0
    for k in qubit.ParamIndex:
        name = k.name.lower()
        up, dn = (replace(s, **{name: getattr(s, name) + d}) for d in (h, -h))
        fd = (qubit.density_matrix(up) - qubit.density_matrix(dn)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - qubit.d_rho(s, k)))))
    return CheckResult("analytic state derivatives vs finite differences", worst <= 1e-9,
                       f"worst residual {worst:.2e}")


def _check_quadrature_basics() -> CheckResult:
    spec = quadrature.QuadSpec(8, 8)
    e1 = abs(quadrature.integrate_1d(lambda x: x * x, 0.0, 1.0, spec) - 1.0 / 3.0)
    gauss = quadrature.integrate_1d(
        lambda u: np.exp(-u * u / 18.0) / (3.0 * math.sqrt(2 * PI)), -PI, PI,
        quadrature.QuadSpec(16, 16))
    e2 = abs(gauss - math.erf(PI / (3.0 * math.sqrt(2.0))))
    split = quadrature.integrate_1d(
        lambda x: np.sign(x) * x * x, -1.0, 2.0, quadrature.QuadSpec(4, 6, (0.0,)))
    e3 = abs(split - 7.0 / 3.0)
    worst = max(e1, e2, e3)
    return CheckResult("interval quadrature (polynomial, gaussian, split sign)",
                       worst <= 1e-12, f"worst residual {worst:.2e}")


def _check_quadrature_doubling() -> CheckResult:
    ctx = _ctx()
    fam = measurement.gaussian_sharp_family(ctx)
    vals = []
    for f in (fam, replace(fam, spec=fam.spec.doubled())):
        breakdown = bounds.bound_Cmax(ctx, f)
        _, v = measurement.estimator_moments(ctx, f)
        vals.append((breakdown["b"], breakdown["C"], v))
    worst = max(abs(p - q) for p, q in zip(vals[0], vals[1]))
    q_state = phasespace.husimi(ctx.state)
    worst = max(worst, quadrature.doubling_residual_sphere(q_state, pole=ctx.state.bloch))
    return CheckResult("panel-doubling stability of reported integrals", worst <= 1e-10,
                       f"worst change {worst:.2e}")


def _check_phasespace() -> CheckResult:
    worst = 0.0
    for s_idx in (-1.0, 1.0):
        avg = quadrature.sphere_integrate(lambda t, p, s_idx=s_idx: phasespace.sw_kernel(t, p, s_idx))
        worst = max(worst, float(np.max(np.abs(avg - np.eye(2)))))
    for st in (_state_grid()[3], _state_grid()[8]):
        rho = qubit.density_matrix(st)
        q = phasespace.husimi(st)
        worst = max(worst, abs(quadrature.sphere_integrate(q, pole=st.bloch) - 1.0))
        back = phasespace.inverse_weyl(phasespace.weyl_map(rho, -1.0), -1.0, pole=st.bloch)
        worst = max(worst, float(np.max(np.abs(back - rho))))
    return CheckResult("kernel average, Husimi normalization, symbol roundtrip",
                       worst <= 1e-10, f"worst residual {worst:.2e}")


def _check_closed_vs_quadrature() -> CheckResult:
    worst = 0.0
    for st in (qubit.QubitState(0.3, PI / 6, 0.3), qubit.QubitState(0.8, PI / 2, 3 * PI / 4)):
        for k in qubit.ParamIndex:
            d = derivatives.new_log_derivative(st, k, "quadrature") - \
                derivatives.new_log_derivative(st, k, "closed")
            worst = max(worst, float(np.max(np.abs(d))))
            d = metrics.deviation_h_definitional(st, k) - derivatives.deviation_h(st, k)
            worst = max(worst, float(np.max(np.abs(d))))
        worst = max(worst, float(np.max(np.abs(
            metrics.new_metric_trace(st) - metrics.new_metric(st)))))
        worst = max(worst, float(np.max(np.abs(
            metrics.husimi_classical_metric(st, "quadrature")
            - metrics.husimi_classical_metric(st, "closed")))))
    return CheckResult("closed forms vs quadrature (L_k, h_k, metrics)", worst <= 1e-8,
                       f"worst disagreement {worst:.2e}")


def _check_hierarchy() -> CheckResult:
    worst = -math.inf
    for st in _state_grid():
        fam = measurement.gaussian_sharp_family(measurement.EstimationContext(st))
        fisher = metrics.measurement_fisher(st, fam)
        g_sld = metrics.sld_metric(st)[2, 2]
        g_rld = metrics.rld_metric(st)[2, 2]
        worst = max(worst, fisher - g_sld, g_sld - g_rld)
    return CheckResult("metric hierarchy fisher <= SLD <= RLD (phi-phi)", worst <= 1e-9,
                       f"worst violation {worst:.2e}")


def _check_povm() -> CheckResult:
    ctx = _ctx()
    fam = measurement.gaussian_sharp_family(ctx)
    report = measurement.validate_povm(fam, ctx)
    ok = report.all_ok
    mean, var = measurement.estimator_moments(ctx, fam)
    v_oracle = _truncated_gaussian_variance(3.0)
    ok = ok and abs(mean - ctx.state.phi) <= 1e-9 and abs(var - v_oracle) <= 1e-10
    return CheckResult("sharp family residuals and moments",
                       ok, f"completeness {report.completeness_residual:.2e}, "
                           f"var residual {abs(var - v_oracle):.2e}")


def _truncated_gaussian_variance(sigma: float) -> float:
    e = math.erf(PI / (sigma * math.sqrt(2.0)))
    g = math.exp(-PI * PI / (2 * sigma * sigma))
    return sigma * sigma * (e - (2 * PI / (sigma * math.sqrt(2 * PI))) * g) / e


def _check_schwarz() -> CheckResult:
    worst = math.inf
    for st in (qubit.QubitState(0.2, PI / 2, 3 * PI / 4), qubit.QubitState(0.7, PI / 6, 0.3)):
        ctx = measurement.EstimationContext(st)
        for fam in (measurement.gaussian_sharp_family(ctx),
                    measurement.tapered_sharp_family(ctx, taper_power=2, offdiag_scale=0.6)):
            rep = bounds.audit_derivation(ctx, fam)
            worst = min(worst, rep["slack_outer"])
    return CheckResult("Schwarz chain and bracket realness", worst >= -1e-10,
                       f"worst outer slack {worst:.2e}")


def _check_sampling() -> CheckResult:
    ctx = _ctx()
    fam = measurement.gaussian_sharp_family(ctx)
    dist = measurement.outcome_distribution(ctx, fam)
    one = measurement.sample_outcomes(dist, 512, seed=7)
    two = measurement.sample_outcomes(dist, 512, seed=7)
    ok = bool(np.array_equal(one, two))
    return CheckResult("sampling determinism for a fixed seed", ok,
                       "identical draws" if ok else "draws differ")


def run_selftest() -> list[CheckResult]:
    checks = (
        _check_state_algebra,
        _check_d_rho_fd,
        _check_quadrature_basics,
        _check_quadrature_doubling,
        _check_phasespace,
        _check_closed_vs_quadrature,
        _check_hierarchy,
        _check_povm,
        _check_schwarz,
        _check_sampling,
    )
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return results
