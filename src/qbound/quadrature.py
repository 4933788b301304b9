"""Deterministic composite Gauss-Legendre quadrature on intervals and the sphere.

Fixed-order composite rules were chosen over adaptive schemes so that CSV
and JSON outputs are bit-reproducible.  Integrands with jump discontinuities
(the sign factor of the sharp measurement family) are handled by explicit
split points, never by smoothing: the interval between consecutive splits is
integrated independently and partial sums are accumulated in a fixed order.

Integrand callables must broadcast over numpy arrays of abscissae.  Scalar
constants and constant 2x2 matrices are also accepted and broadcast
internally.

On the sphere, with dmu = du dpsi / (2 pi) for u = n.Omega and psi the
azimuth about an axis n, one rule serves two cases:

* No pole (state-free integrands): n = e3, Gauss-Legendre in u = cos(theta1)
  on panels x order nodes times a trapezoid of 2 x panels x order nodes
  in phi1.  This is exact for every spherical harmonic of degree below
  2 x panels x order.
* A pole p, the Bloch vector of a state with r = |p| in (0, 1): n = p / r.
  The state integrands are polynomials in Omega over powers of
  Q = (1 + r u) / 2.  In psi they are trigonometric polynomials of degree
  <= 2, on which the periodic trapezoid rule is exact from 3 nodes
  (Trefethen & Weideman, SIAM Review 56, 2014); it uses 8 x panels nodes.
  In u they are analytic but for the pole of 1/(1 + r u) at u = -1/r, and
  a Gauss rule on [-1, 1] converges like rho^(-2n) with rho the Bernstein
  ellipse through that pole, rho = 1/r + sqrt(1/r^2 - 1).  As r -> 1,
  rho -> 1 and a uniform rule needs O(1/sqrt(1 - r)) nodes.  Split at the
  geometric mesh -1 + 2 * 0.2^k, down to below 0.2 (1 - r), every panel
  sees the pole at least half its half-width beyond its near end
  (rho >= 2.6), so O(log 1/(1 - r)) panels of `order` nodes suffice.

Both map their nodes back to the lab angles (theta1, phi1), so integrands
are written once, in the lab frame, and the rule never looks inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(ValueError):
    """An integrand produced a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class QuadSpec:
    """Composite Gauss-Legendre rule: `panels` panels of `order` nodes per
    smooth piece, with optional interior split points."""

    panels: int = 64
    order: int = 16
    split_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.order < 2:
            raise ValueError("order must be >= 2")
        object.__setattr__(self, "split_points", tuple(float(s) for s in self.split_points))

    def with_splits(self, split_points) -> "QuadSpec":
        return QuadSpec(self.panels, self.order, tuple(split_points))

    def doubled(self) -> "QuadSpec":
        return QuadSpec(2 * self.panels, self.order, self.split_points)


DEFAULT_SPEC = QuadSpec()
# one 16-point panel in u per grading level; exact to degree 31 without a pole
SPHERE_SPEC = QuadSpec(panels=1, order=16)
# ratio of the sphere rule's geometric mesh toward u = -1; the mesh stops
# below GRADING * (1 - r), where the pole at u = -1/r is 5 panel widths away
GRADING = 0.2


@lru_cache(maxsize=None)
def _gauss(order: int):
    x, w = leggauss(order)
    return x, w


def nodes_1d(a: float, b: float, spec: QuadSpec) -> tuple[np.ndarray, np.ndarray]:
    """All abscissae and weights for [a, b], in deterministic left-to-right order.

    Split points outside the open interval (a, b) are ignored, which lets one
    spec be reused for sub-windows.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    splits = np.asarray(spec.split_points, dtype=float)
    # stable, like sorted(): 0.0 and -0.0 keep their order, and so their sign
    # in the zero-width pieces between them
    splits = np.sort(splits[(a < splits) & (splits < b)], kind="stable")
    breaks = np.concatenate([[a], splits, [b]])
    lo, hi = breaks[:-1, None], breaks[1:, None]
    # np.linspace(lo, hi, panels + 1) per piece, with linspace's own
    # arithmetic (and its fallback for a step that underflows to zero)
    n = spec.panels
    t = np.arange(n + 1.0)
    step = (hi - lo) / n
    edges = np.where(step == 0, t / n * (hi - lo), t * step) + lo
    edges[:, -1] = hi[:, 0]
    pa, pb = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    half = 0.5 * (pb - pa)
    mid = 0.5 * (pa + pb)
    x0, w0 = _gauss(spec.order)
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


def _check_finite(values: np.ndarray, x: np.ndarray) -> None:
    bad = ~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
    if bad.any():
        where = float(x[int(np.argmax(bad))])
        raise QuadratureError(f"integrand is not finite at abscissa {where!r}")


def integrate_1d(f, a: float, b: float, spec: QuadSpec | None = None) -> float:
    """Composite quadrature of a real-valued f over [a, b]."""
    spec = spec or DEFAULT_SPEC
    x, w = nodes_1d(a, b, spec)
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    _check_finite(y[:, None], x)
    return float(w @ y)


def _sphere_nodes(spec: QuadSpec, pole, extra_levels: int = 0):
    """Lab angles and weights of the sphere rule, u-major."""
    if pole is None:
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(spec.panels, spec.order))
        m = 2 * spec.panels * spec.order
        e1, e2, n = np.eye(3)
    else:
        pole = np.asarray(pole, dtype=float)
        r = float(np.linalg.norm(pole))
        if pole.shape != (3,) or not 0.0 < r < 1.0:
            raise ValueError(f"pole must be a 3-vector of length in (0, 1), got {pole!r}")
        levels = 1
        while 2.0 * GRADING ** levels >= GRADING * (1.0 - r):
            levels += 1
        splits = [-1.0 + 2.0 * GRADING ** k for k in range(1, levels + extra_levels + 1)]
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(spec.panels, spec.order, splits))
        m = 8 * spec.panels
        # spherical frame of n: e1 toward increasing polar angle, e2 azimuthal
        n = pole / r
        rho = math.hypot(n[0], n[1])
        cp, sp = (n[0] / rho, n[1] / rho) if rho > 0.0 else (1.0, 0.0)
        e1 = np.array([n[2] * cp, n[2] * sp, -rho])
        e2 = np.array([-sp, cp, 0.0])
    psi = np.arange(m) * (2.0 * np.pi / m)
    s = np.sqrt((1.0 - u) * (1.0 + u))
    a, b = s[:, None] * np.cos(psi), s[:, None] * np.sin(psi)
    x, y, z = (a * e1[i] + b * e2[i] + u[:, None] * n[i] for i in range(3))
    theta1 = np.arctan2(np.hypot(x, y), z).ravel()
    phi1 = np.arctan2(y, x).ravel()
    return theta1, phi1, np.repeat(wu / m, m)


def _integrate_nodes(F, theta1, phi1, w):
    raw = np.asarray(F(theta1, phi1))
    if raw.ndim == 0:
        vals = np.broadcast_to(raw, theta1.shape)
    elif raw.shape == theta1.shape:
        vals = raw
    elif raw.shape == (2, 2):
        vals = np.broadcast_to(raw, theta1.shape + (2, 2))
    elif raw.shape == theta1.shape + (2, 2):
        vals = raw
    else:
        raise TypeError(
            "sphere integrand must broadcast to a scalar field or a field of "
            f"2x2 matrices; got shape {raw.shape} for {theta1.shape[0]} nodes"
        )
    _check_finite(vals, theta1)
    if vals.ndim == 1:
        res = w @ vals
        return complex(res) if np.iscomplexobj(vals) else float(res)
    return np.einsum("i,ijk->jk", w, vals)


def sphere_integrate(F, spec: QuadSpec | None = None, pole=None):
    """Integral of F(theta1, phi1) over the sphere with measure
    sin(theta1) d theta1 d phi1 / (2 pi), so the total measure is 2.

    F may return a scalar field or a field of 2x2 matrices (shape
    (..., 2, 2)); matrix fields are integrated entrywise.  `pole` is the
    Bloch vector of the state whose Husimi function F divides by (None for
    state-free integrands); see the module docstring.  Split points in the
    spec are not used on the sphere.
    """
    return _integrate_nodes(F, *_sphere_nodes(spec or SPHERE_SPEC, pole))


def doubling_residual_sphere(F, spec: QuadSpec | None = None, pole=None) -> float:
    """Max-abs change of the integral when every axis is refined: twice the
    panels per grading level, twice the azimuth nodes, one more level."""
    spec = spec or SPHERE_SPEC
    lo = np.asarray(sphere_integrate(F, spec, pole))
    hi = np.asarray(_integrate_nodes(F, *_sphere_nodes(spec.doubled(), pole, extra_levels=1)))
    return float(np.max(np.abs(lo - hi)))
