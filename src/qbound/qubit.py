"""2x2 Hermitian algebra and the Bloch-parameterized qubit state.

Parameter order is fixed throughout the package as xi = (r, theta, phi):
purity radius, polar angle, azimuth.  All 3-vectors and 3x3 matrices built
elsewhere follow this order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

HERMITIAN_ATOL = 1e-12

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """A parameter lies outside an operation's documented domain."""


class ParamIndex(enum.IntEnum):
    """Selects the estimation parameter: xi^1 = r, xi^2 = theta, xi^3 = phi."""

    R = 1
    THETA = 2
    PHI = 3


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """m as a complex 2x2 array; a defect max |m - m^dagger| above
    HERMITIAN_ATOL, or not finite, raises ValueError naming `name`."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    # |c - conj(b)| = |b - conj(c)|; hypot gives inf, not an error, past the float range
    diffs = (a - a.conjugate(), b - c.conjugate(), d - d.conjugate())
    defects = [math.hypot(z.real, z.imag) for z in diffs]
    # max() keeps a NaN only when it comes first; the sum is NaN if any is
    defect = math.nan if math.isnan(sum(defects)) else max(defects)
    if not defect <= HERMITIAN_ATOL:
        raise ValueError(
            f"{name} is not Hermitian: max |m - m^dagger| = {defect:.3e} > {HERMITIAN_ATOL:.1e}"
        )
    return m


@dataclass(frozen=True)
class QubitState:
    """Bloch parameters (r, theta, phi) of a one-qubit density matrix.

    r in [0, 1], theta in [0, pi]; phi is reduced modulo 2*pi at
    construction so stored values lie in [0, 2*pi).
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        r, theta, phi = float(self.r), float(self.theta), float(self.phi)
        if not (math.isfinite(r) and math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError("state parameters must be finite")
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"r must lie in [0, 1], got {r}")
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"theta must lie in [0, pi], got {theta}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % TWO_PI)

    @property
    def bloch(self) -> np.ndarray:
        """Bloch vector r * (sin t cos p, sin t sin p, cos t)."""
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return self.r * np.array([st * math.cos(self.phi), st * math.sin(self.phi), ct])


def density_matrix(state: QubitState) -> np.ndarray:
    """rho = (1/2)(I + r n.sigma) written out for the Bloch angles."""
    r, th, ph = state.r, state.theta, state.phi
    off = r * math.sin(th) * np.exp(-1j * ph)
    return 0.5 * np.array(
        [[1.0 + r * math.cos(th), off], [np.conj(off), 1.0 - r * math.cos(th)]],
        dtype=complex,
    )


def d_rho(state: QubitState, k: ParamIndex) -> np.ndarray:
    """Analytic partial derivative of the density matrix w.r.t. xi^k.

    All three derivatives are Hermitian and traceless.
    """
    r, th, ph = state.r, state.theta, state.phi
    k = ParamIndex(k)
    if k is ParamIndex.R:
        off = math.sin(th) * np.exp(-1j * ph)
        return 0.5 * np.array(
            [[math.cos(th), off], [np.conj(off), -math.cos(th)]], dtype=complex
        )
    if k is ParamIndex.THETA:
        off = math.cos(th) * np.exp(-1j * ph)
        return 0.5 * r * np.array(
            [[-math.sin(th), off], [np.conj(off), math.sin(th)]], dtype=complex
        )
    off = -1j * math.sin(th) * np.exp(-1j * ph)
    return 0.5 * r * np.array([[0.0, off], [np.conj(off), 0.0]], dtype=complex)


def eig2(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a 2x2 Hermitian matrix.

    Returns (w, V) with eigenvalues ascending and orthonormal eigenvectors in
    the columns of V.  Each eigenvector's phase is fixed by making its first
    component of appreciable magnitude real and positive, so repeated calls
    are bit-reproducible.  Non-Hermitian input is rejected.
    """
    h = require_hermitian(h, name="eig2 input")
    w, v = np.linalg.eigh(h)
    for j in range(2):
        col = v[:, j]
        idx = 0 if abs(col[0]) > 1e-10 else 1
        pivot = col[idx]
        if abs(pivot) > 0:
            v[:, j] = col * (np.conj(pivot) / abs(pivot))
    return w, v


def pauli_decomposition(h, name: str = "pauli_decomposition input") -> tuple[float, np.ndarray]:
    """Coefficients (a0, a) of h = a0*I + a.sigma for Hermitian h, called `name` in errors."""
    h = require_hermitian(h, name=name)
    # tr(h) / 2 and tr(h sigma_k) / 2 from the entries; + 0.0 makes a zero +0.0, as trace does
    c = 0.5 * np.array([h[0, 0].real + h[1, 1].real, h[0, 1].real + h[1, 0].real,
                        h[1, 0].imag - h[0, 1].imag, h[0, 0].real - h[1, 1].real]) + 0.0
    return float(c[0]), c[1:]


def pauli_operator(a0: float, a) -> np.ndarray:
    """a0*I + a.sigma, the inverse of pauli_decomposition, from floats a0 and a."""
    x, y, z = a
    # + 0.0 makes a zero +0.0, as a sum of the Pauli matrices does
    return np.array([[a0 + z + 0.0, complex(x + 0.0, 0.0 - y)],
                     [complex(x + 0.0, y + 0.0), a0 - z + 0.0]], dtype=complex)
