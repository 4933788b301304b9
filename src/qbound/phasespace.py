"""Phase-space correspondence for one qubit: kernel, symbol maps, Husimi function.

The operator <-> function correspondence on the sphere is implemented through
the kernel family, in Pauli form,

    Delta(Omega; s) = (I + c_s Omega.sigma) / 2,
    Omega = (sin t1 cos p1, sin t1 sin p1, cos t1),

with c_s = 3^{(1+s)/2} for the two indices in use: c_{-1} = 1 and c_{+1} = 3.
Any other s raises ValueError.  The forward map sends an operator A to the symbol
F_A(Omega; s) = tr[A Delta(Omega; s)]; the inverse map integrates the symbol
against the kernel of *opposite* index, A = integral F_A(Omega; s)
Delta(Omega; -s) dmu(Omega) with dmu = sin t1 dt1 dp1 / (2 pi).  This sign
pairing is adopted literally and is pinned down by round-trip tests rather
than by convention.  Delta is linear in (1, Omega), so the inverse map
integrates the real field f (1, Omega) to Pauli coefficients (a0, a) and
returns (a0 I + c_{-s} a.sigma) / 2 through `qubit.pauli_operator`.  It
reads Omega at the nodes from the cached sphere rule that its
`sphere_integrate` call integrates on; `sw_kernel` computes Omega by the
same formula, `quadrature._omega`.

The s = -1 symbol of a state is its Husimi function, a genuine probability
density; it and its partials are built from rho and d_rho through the
forward map, so `qubit` is the only place the Bloch angles become matrix
entries.  Symbols that divide by the Husimi function Q have a pole just
beyond the antipode of the state as r -> 1, so `inverse_weyl` takes the
state's Bloch vector as the `pole` of the sphere rule, which then
integrates in the state's own frame on a mesh graded toward that antipode
(see `quadrature`).
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _omega, _sphere_nodes, sphere_integrate
from .qubit import (
    IDENTITY2,
    PAULIS,
    ParamIndex,
    QubitState,
    d_rho,
    density_matrix,
    pauli_decomposition,
    pauli_operator,
)


def _c(s: float) -> float:
    """c_s = 3^{(1+s)/2} for s = -1 or +1."""
    if s == -1.0:
        return 1.0
    if s == 1.0:
        return 3.0
    raise ValueError(f"s must be -1.0 or +1.0, got s = {s!r}")


def sw_kernel(theta1, phi1, s: float) -> np.ndarray:
    """(I + c_s Omega.sigma)/2 at one sphere point, or a (..., 2, 2) field for array input.

    Every value is Hermitian with unit trace.
    """
    return 0.5 * (IDENTITY2 + _c(s) * np.tensordot(_omega(theta1, phi1), PAULIS, axes=1))


def weyl_map(a, s: float):
    """Symbol of a Hermitian operator: the real function tr[a Delta(.; s)].

    With a = a0 I + a.sigma and Delta = (I + c_s Omega.sigma)/2 this is
    a0 + c_s a.Omega, evaluated as
    a0 + c_s (|a_xy| sin t1 cos(p1 - beta) + a_z cos t1), beta the azimuth of a.
    Hermiticity is checked once, naming the `weyl_map input` in its error.
    """
    c = _c(s)
    a0, vec = pauli_decomposition(a, name="weyl_map input")
    c_xy = c * math.hypot(vec[0], vec[1])
    beta = math.atan2(vec[1], vec[0])
    c_z = c * vec[2]

    def symbol(theta1, phi1):
        theta1 = np.asarray(theta1, dtype=float)
        return a0 + c_xy * np.sin(theta1) * np.cos(np.asarray(phi1) - beta) + c_z * np.cos(theta1)

    return symbol


def inverse_weyl(f, s: float, pole=None) -> np.ndarray:
    """Operator whose s-symbol is f: integral of f(Omega) Delta(Omega; -s) dmu.

    `pole` is the Bloch vector of the state whose Husimi function f divides
    by, passed on to `sphere_integrate`; Omega comes from that pole's rule.
    """
    _c(s)
    omega = _sphere_nodes(pole)[3]

    def integrand(theta1, phi1):
        vals = np.asarray(f(theta1, phi1), dtype=float)
        if vals.shape != theta1.shape:
            vals = np.broadcast_to(vals, theta1.shape)
        return np.concatenate([vals[:, None], vals[:, None] * omega], axis=-1)

    a0, *a = sphere_integrate(integrand, pole).tolist()
    c = 0.5 * _c(-s)
    return pauli_operator(0.5 * a0, [c * v for v in a])


def husimi(state: QubitState):
    """Husimi function of the state as a callable Q(theta1, phi1): the
    s = -1 symbol of the density matrix,

    Q = (1 + r cos t1 cos theta + r cos(p1 - phi) sin t1 sin theta) / 2.

    It is nonnegative, bounded by (1 +/- r)/2, and integrates to 1 against dmu.
    """
    return weyl_map(density_matrix(state), -1.0)


def husimi_partial(state: QubitState, k: ParamIndex):
    """Partial derivative of the Husimi function w.r.t. xi^k, as a callable.

    The symbol map is linear, so this is the s = -1 symbol of d_rho.
    """
    return weyl_map(d_rho(state, k), -1.0)
