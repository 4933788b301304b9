"""Deterministic composite Gauss-Legendre quadrature on intervals and the sphere.

Fixed-order composite rules were chosen over adaptive schemes so that CSV
and JSON outputs are bit-reproducible.  Integrands with jump discontinuities
(the sign factor of the sharp measurement family) are handled by explicit
split points, never by smoothing: the interval between consecutive splits is
integrated independently and partial sums are accumulated in a fixed order.

Integrand callables must broadcast over numpy arrays of abscissae.  Scalar
constants and constant 2x2 matrices are also accepted and broadcast
internally.
"""

from __future__ import annotations

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
# Sphere integrands here are smooth, so fewer panels suffice per axis.
SPHERE_SPEC = QuadSpec(panels=12, order=16)


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


def sphere_integrate(F, spec: QuadSpec | None = None):
    """Integral of F(theta1, phi1) over the sphere with measure
    sin(theta1) d theta1 d phi1 / (2 pi), so the total measure is 2.

    F may return a scalar field or a field of 2x2 matrices (shape
    (..., 2, 2)); matrix fields are integrated entrywise.  Split points in
    the spec are not used on the sphere.
    """
    spec = spec or SPHERE_SPEC
    plain = QuadSpec(spec.panels, spec.order)
    t, wt = nodes_1d(0.0, np.pi, plain)
    p, wp = nodes_1d(0.0, 2.0 * np.pi, plain)
    T, P = np.meshgrid(t, p, indexing="ij")
    W = np.outer(wt * np.sin(t), wp / (2.0 * np.pi)).ravel()
    T, P = T.ravel(), P.ravel()

    raw = np.asarray(F(T, P))
    if raw.ndim == 0:
        vals = np.broadcast_to(raw, T.shape)
    elif raw.shape == T.shape:
        vals = raw
    elif raw.shape == (2, 2):
        vals = np.broadcast_to(raw, T.shape + (2, 2))
    elif raw.shape == T.shape + (2, 2):
        vals = raw
    else:
        raise TypeError(
            "sphere integrand must broadcast to a scalar field or a field of "
            f"2x2 matrices; got shape {raw.shape} for {T.shape[0]} nodes"
        )
    _check_finite(vals, T)
    if vals.ndim == 1:
        res = W @ vals
        return complex(res) if np.iscomplexobj(vals) else float(res)
    return np.einsum("i,ijk->jk", W, vals)


def doubling_residual_sphere(F, spec: QuadSpec | None = None) -> float:
    spec = spec or SPHERE_SPEC
    lo = np.asarray(sphere_integrate(F, spec))
    hi = np.asarray(sphere_integrate(F, spec.doubled()))
    return float(np.max(np.abs(lo - hi)))
