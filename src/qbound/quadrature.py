"""Deterministic composite Gauss-Legendre quadrature on intervals and the sphere.

Fixed-order composite rules were chosen over adaptive schemes so that CSV
and JSON outputs are bit-reproducible.  Integrands with jump discontinuities
(the sign factor of the sharp measurement family) are handled by explicit
split points, never by smoothing: the interval between consecutive splits is
integrated independently and partial sums are accumulated in a fixed order.

Integrand callables must broadcast over numpy arrays of abscissae.  A sphere
integrand returns a field whose first axis has the node count, of any trailing
shape, integrated entrywise; a scalar or a 2x2 constant broadcasts.

On the sphere, with dmu = du dpsi / (2 pi) for u = n.Omega and psi the
azimuth about an axis n, one fixed rule of SPHERE_ORDER = 16 Gauss nodes
per panel in u serves two cases:

* No pole (state-free integrands): n = e3, 16 Gauss-Legendre nodes in
  u = cos(theta1) times a trapezoid of 32 nodes in phi1.  This is exact
  for every spherical harmonic of degree below 32.
* A pole p, the Bloch vector of a state with r = |p| in (0, 1): n = p / r.
  The state integrands are polynomials in Omega over powers of
  Q = (1 + r u) / 2.  In psi they are trigonometric polynomials of degree
  <= 2, on which the periodic trapezoid rule is exact from 3 nodes
  (Trefethen & Weideman, SIAM Review 56, 2014); it uses 8 nodes.
  In u they are analytic but for the pole of 1/(1 + r u) at u = -1/r, and
  a Gauss rule on [-1, 1] converges like rho^(-2n) with rho the Bernstein
  ellipse through that pole, rho = 1/r + sqrt(1/r^2 - 1).  As r -> 1,
  rho -> 1 and a uniform rule needs O(1/sqrt(1 - r)) nodes.  Split at the
  geometric mesh -1 + 2 * 0.2^k, down to below 0.2 (1 - r), every panel
  sees the pole at least half its half-width beyond its near end
  (rho >= 2.6), so O(log 1/(1 - r)) grading panels of 16 nodes suffice.

The doubling residual refines every axis of either case: 2 panels per
grading level (or over [-1, 1] without a pole), one more level, and twice
the azimuth nodes.

Both map their nodes back to the lab angles (theta1, phi1), so integrands
are written once, in the lab frame, and the rule never looks inside them.
A rule is built once per (pole, refinement) and passed on read-only: the
lab angles, the weights, and the unit vectors Omega(theta1, phi1), shape
(nodes, 3), which integrands linear in Omega (`phasespace.inverse_weyl`)
read from the rule instead of recomputing.
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
        object.__setattr__(self, "split_points", tuple(map(float, self.split_points)))

    def with_splits(self, split_points) -> "QuadSpec":
        return QuadSpec(self.panels, self.order, tuple(split_points))

    def doubled(self) -> "QuadSpec":
        return QuadSpec(2 * self.panels, self.order, self.split_points)


DEFAULT_SPEC = QuadSpec()
# Gauss nodes per grading panel in u; exact to degree 31 without a pole
SPHERE_ORDER = 16
# ratio of the sphere rule's geometric mesh toward u = -1; the mesh stops
# below GRADING * (1 - r), where the pole at u = -1/r is 5 panel widths away
GRADING = 0.2


@lru_cache(maxsize=None)
def _gauss(order: int):
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
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


def _omega(theta1, phi1) -> np.ndarray:
    """Unit vectors Omega(theta1, phi1), shape (..., 3)."""
    st = np.sin(theta1)
    return np.stack(np.broadcast_arrays(st * np.cos(phi1), st * np.sin(phi1), np.cos(theta1)), -1)


def _sphere_nodes(pole, panels: int = 1, extra_levels: int = 0):
    """Lab angles, weights and unit vectors Omega of the sphere rule, u-major, read-only."""
    if pole is not None:
        pole = np.asarray(pole, dtype=float)
        if pole.shape != (3,) or not 0.0 < float(np.linalg.norm(pole)) < 1.0:
            raise ValueError(f"pole must be a 3-vector of length in (0, 1), got {pole!r}")
    return _sphere_rule(None if pole is None else pole.tobytes(), panels, extra_levels)


# keyed by the pole's float64 bytes, so a zero's sign counts; 4 rules hold a
# state's rule, its refinement and the pole-free rule
@lru_cache(maxsize=4)
def _sphere_rule(pole: bytes | None, panels: int, extra_levels: int):
    if pole is None:
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(panels, SPHERE_ORDER))
        m = 2 * panels * SPHERE_ORDER
        e1, e2, n = np.eye(3)
    else:
        pole = np.frombuffer(pole)
        r = float(np.linalg.norm(pole))
        levels = 1
        while 2.0 * GRADING ** levels >= GRADING * (1.0 - r):
            levels += 1
        splits = [-1.0 + 2.0 * GRADING ** k for k in range(1, levels + extra_levels + 1)]
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(panels, SPHERE_ORDER, splits))
        m = 8 * panels
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
    rule = theta1, phi1, np.repeat(wu / m, m), _omega(theta1, phi1)
    for a in rule:
        a.flags.writeable = False
    return rule


@np.errstate(invalid="ignore")
def _integrate_nodes(F, rule):
    """The weights are finite and > 0, so a non-finite value at a node makes
    the sum non-finite (inf - inf unwarned); only then is the field scanned,
    to name the first such node.  Finite values whose sum overflows give inf,
    with numpy's overflow warning."""
    theta1, phi1, w, _ = rule
    vals = np.asarray(F(theta1, phi1))
    if vals.shape[:1] != theta1.shape:
        if vals.shape not in ((), (2, 2)):
            raise TypeError(
                "sphere integrand must broadcast to a field with one value per node; "
                f"got shape {vals.shape} for {theta1.shape[0]} nodes"
            )
        vals = np.broadcast_to(vals, theta1.shape + vals.shape)
    res = np.dot(w, vals.reshape(w.size, -1))
    if not np.isfinite(res).all():
        _check_finite(vals, theta1)
    return res.item() if vals.ndim == 1 else res.reshape(vals.shape[1:])


def sphere_integrate(F, pole=None):
    """Integral of F(theta1, phi1) over the sphere with measure
    sin(theta1) d theta1 d phi1 / (2 pi), so the total measure is 2.

    F returns a field of shape (nodes, ...), integrated entrywise, or a
    scalar or 2x2 constant.  A scalar field gives a scalar.  `pole` is the
    Bloch vector of the state whose Husimi function F divides by (None for
    state-free integrands).  The rule for a pole is built once, and F gets
    its nodes as read-only arrays; see the module docstring.
    """
    return _integrate_nodes(F, _sphere_nodes(pole))


def doubling_residual_sphere(F, pole=None) -> float:
    """Max-abs change of the integral when every axis is refined: twice the
    panels per grading level, twice the azimuth nodes, one more level."""
    lo = np.asarray(sphere_integrate(F, pole))
    hi = np.asarray(_integrate_nodes(F, _sphere_nodes(pole, panels=2, extra_levels=1)))
    return float(np.max(np.abs(lo - hi)))
