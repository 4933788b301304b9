"""Reference clock: fixed calibration work that tracks the CPU's current speed.

The benchmark runs on shared CPUs whose speed for identical work swings by
up to 2x over tens of seconds as other tenants load the machine.  A raw
wall time therefore says as much about the neighbours as about qbound.
Every timing the benchmark reports is instead scaled by

    reference time of a calibration kernel / mean of its times right before
    and right after the timed call,

so it reads as the time the work would take on an idle reference core.
The kernels are written here, never call qbound, and each mimics the shape
of one workload's hot path, so contention slows kernel and op alike:

    python       a Python loop building small arrays (composite-rule panels)
    interp       np.interp on unsorted uniforms (inverse-CDF sampling)
    elementwise  complex trig over a sphere-sized node set (phase-space fields)

A child process (an import, a CLI run) does other work: exec, loading and
unmarshalling modules, page faults.  It is timed against a calibration
child instead, a fresh interpreter that imports numpy and nothing of
qbound, run right before and right after the import and CLI pair it
belongs to (consecutive pairs share the one between them):

    reference spawn time / mean of the two calibration children.

REFERENCE_S and REFERENCE_SPAWN_S hold the times on an idle core of the
machine the benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11,
numpy 2.4), taken as a low percentile over a few minutes; only ratios
between runs on one machine are meaningful.
"""

from __future__ import annotations

import time

import numpy as np

_NODES = np.polynomial.legendre.leggauss(16)[0]
_GRID = np.linspace(0.0, 1.0, 8193)
_CDF = _GRID ** 2
_UNIFORMS = np.random.default_rng(20121007).random(25_000)
_ANGLES = np.random.default_rng(1210).random((2, 18_432)) * np.pi


def _python_kernel() -> float:
    pieces = []
    for i in range(200):
        edges = np.linspace(i, i + 1.0, 3)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            pieces.append(0.5 * (lo + hi) + half * _NODES)
    return float(np.concatenate(pieces).sum())


def _interp_kernel() -> float:
    return float(np.interp(_UNIFORMS, _CDF, _GRID).sum())


def _elementwise_kernel() -> float:
    t, p = _ANGLES
    phase = np.exp(1j * p)
    field = (1.0 + 0.5 * np.cos(t)) * np.sin(t) * phase / (1.2 + np.cos(t) * np.cos(p))
    return float(np.abs(field).sum())


KERNELS = {"python": _python_kernel, "interp": _interp_kernel, "elementwise": _elementwise_kernel}
REFERENCE_S = {"python": 2.0e-3, "interp": 2.65e-3, "elementwise": 1.9e-3}
REFERENCE_SPAWN_S = 0.125


class RefClock:
    """Times calls to fn, scaled by a calibration kernel run right before
    and right after each call."""

    def __init__(self, kernel: str):
        self.kernel = KERNELS[kernel]
        self.reference = REFERENCE_S[kernel]
        self.kernel()  # first call pays for page faults and caches

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def call(self, fn, *args):
        """(fn(*args), raw seconds, seconds scaled to the reference core)."""
        before = self.sample()
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        after = self.sample()
        return out, raw, raw * self.reference / (0.5 * (before + after))
