import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound.qubit import (
    HERMITIAN_ATOL,
    IDENTITY2,
    PAULI_Z,
    PAULIS,
    DomainError,
    ParamIndex,
    QubitState,
    d_rho,
    density_matrix,
    eig2,
    pauli_decomposition,
    pauli_operator,
    require_hermitian,
)

from conftest import PI, grid_36

states = st.builds(
    QubitState,
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, PI),
    phi=st.floats(0.0, 2 * PI, exclude_max=True),
)


def test_density_matrix_maximally_mixed():
    rho = density_matrix(QubitState(0.0, 1.2, 4.0))
    assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_density_matrix_pole():
    rho = density_matrix(QubitState(1.0, 0.0, 0.0))
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_density_matrix_equator_point():
    rho = density_matrix(QubitState(0.5, PI / 2, 0.0))
    assert np.allclose(rho, np.array([[0.5, 0.25], [0.25, 0.5]]), atol=1e-15)


def test_density_trace_and_eigenvalues_on_grid():
    for r, th, ph in grid_36():
        rho = density_matrix(QubitState(r, th, ph))
        assert abs(np.trace(rho).real - 1.0) <= 1e-15
        w, _ = eig2(rho)
        assert abs(w[0] - (1 - r) / 2) <= 1e-12
        assert abs(w[1] - (1 + r) / 2) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(states)
def test_density_matrix_hermitian(state):
    rho = density_matrix(state)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15
    assert abs(np.trace(rho).real - 1.0) <= 1e-15


def test_state_validation():
    with pytest.raises(DomainError):
        QubitState(-0.1, 1.0, 0.0)
    with pytest.raises(DomainError):
        QubitState(1.1, 1.0, 0.0)
    with pytest.raises(DomainError):
        QubitState(0.5, -0.2, 0.0)
    # the first non-finite parameter is named, ahead of the range checks
    for args, message in (((0.5, math.nan, 0.0), "theta must be finite, got nan"),
                          ((math.nan, math.inf, 0.0), "r must be finite, got nan"),
                          ((2.0, 1.0, -math.inf), "phi must be finite, got -inf")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            QubitState(*args)
    # azimuth wraps
    assert abs(QubitState(0.5, 1.0, 2 * PI + 0.3).phi - 0.3) <= 1e-12


def test_d_rho_phi_example():
    got = d_rho(QubitState(0.5, PI / 2, 0.0), ParamIndex.PHI)
    want = np.array([[0.0, -0.25j], [0.25j, 0.0]])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_d_rho_traceless_and_hermitian():
    for r, th, ph in grid_36():
        s = QubitState(r, th, ph)
        for k in ParamIndex:
            der = d_rho(s, k)
            assert abs(np.trace(der)) <= 1e-15
            assert np.max(np.abs(der - der.conj().T)) <= 1e-15


def test_d_rho_matches_finite_differences():
    # central differences with step 1e-6 on a 3x3x3 grid
    h = 1e-6
    grid = [(r, th, ph) for r in (0.2, 0.5, 0.8) for th in (0.4, PI / 2, 2.6) for ph in (0.3, 2.0, 5.0)]
    for r, th, ph in grid:
        s = QubitState(r, th, ph)
        for k, name in ((ParamIndex.R, "r"), (ParamIndex.THETA, "theta"), (ParamIndex.PHI, "phi")):
            kwargs = {"r": r, "theta": th, "phi": ph}
            up = dict(kwargs)
            dn = dict(kwargs)
            up[name] += h
            dn[name] -= h
            fd = (density_matrix(QubitState(**up)) - density_matrix(QubitState(**dn))) / (2 * h)
            assert np.max(np.abs(fd - d_rho(s, k))) <= 1e-9


def test_eig2_identity():
    w, _ = eig2(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])


def test_eig2_density_example():
    w, _ = eig2(density_matrix(QubitState(0.5, PI / 2, 0.0)))
    assert np.allclose(w, [0.25, 0.75], atol=1e-14)


def test_eig2_pauli_z():
    w, v = eig2(PAULI_Z)
    assert np.allclose(w, [-1.0, 1.0])
    # columns orthonormal
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_eig2_phase_convention():
    # first appreciable component of each eigenvector is real positive
    for r, th, ph in grid_36():
        _, v = eig2(density_matrix(QubitState(r, th, ph)))
        for j in range(2):
            col = v[:, j]
            lead = col[0] if abs(col[0]) > 1e-10 else col[1]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0


def test_eig2_reconstruction():
    for r, th, ph in grid_36():
        rho = density_matrix(QubitState(r, th, ph))
        w, v = eig2(rho)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - rho)) <= 1e-12


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.nan)])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_require_hermitian_rejects_a_nan_in_any_entry(entry, value):
    m = np.eye(2, dtype=complex)
    m[entry] = value
    with pytest.raises(ValueError, match=r"^probe is not Hermitian: max \|m - m\^dagger\| = nan"):
        require_hermitian(m, name="probe")


def test_require_hermitian_rejects_a_defect_beyond_the_float_range():
    # |b - conj(c)| = 1.5e308 * sqrt(2) from finite parts
    m = np.array([[0.0, 1e308 + 1e308j], [-0.5e308 + 0.5e308j, 0.0]])
    with pytest.raises(ValueError, match=r"^probe is not Hermitian: .* = inf"):
        require_hermitian(m, name="probe")


def test_eig2_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig2(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a0=st.floats(-2, 2),
    ax=st.floats(-2, 2),
    ay=st.floats(-2, 2),
    az=st.floats(-2, 2),
)
def test_eig2_random_hermitian_roundtrip(a0, ax, ay, az):
    from qbound.qubit import IDENTITY2, PAULI_X, PAULI_Y

    h = a0 * IDENTITY2 + ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z
    w, v = eig2(h)
    assert w[0] <= w[1]
    assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-12
    back0, back = pauli_decomposition(h)
    assert abs(back0 - a0) <= 1e-12
    assert np.allclose(back, [ax, ay, az], atol=1e-12)


def _pauli_by_traces(h):
    """The trace form of the coefficients: tr(h) / 2 and tr(h sigma_k) / 2."""
    return 0.5 * np.trace(h).real, np.array([0.5 * np.trace(h @ p).real for p in PAULIS])


def test_pauli_decomposition_equals_the_trace_form_bit_for_bit():
    rng = np.random.default_rng(7)
    zero = (0.0, -0.0)
    for _ in range(2000):
        # Hermitian up to a defect below the tolerance, with a random share
        # of its parts replaced by zeros of either sign
        d0, d1, re, im = (rng.choice(zero) if rng.random() < 0.4 else v
                          for v in rng.normal(size=4))
        # a zero pairs with a zero of either sign across the diagonal
        re1, im1 = (rng.choice(zero) if v == 0.0 else s * v for v, s in ((re, 1.0), (im, -1.0)))
        h = np.array([[complex(d0, rng.choice(zero)), complex(re, im)],
                      [complex(re1, im1), complex(d1, rng.choice(zero))]])
        if rng.random() < 0.5:
            defect = rng.uniform(-1.0, 1.0, (2, 2, 2)) * (0.25 * HERMITIAN_ATOL)
            h = h + (defect[0] + 1j * defect[1])
        a0, a = pauli_decomposition(h)
        want0, want = _pauli_by_traces(h)
        assert np.float64(a0).tobytes() == np.float64(want0).tobytes(), h
        assert a.tobytes() == want.tobytes(), h


def test_pauli_operator_equals_the_tensordot_form_bit_for_bit():
    # inverse_weyl's 0.5 * (a0 I + c a.sigma), with zeros of either sign
    rng = np.random.default_rng(19)
    zero = (0.0, -0.0)
    for _ in range(2000):
        a0, *a = (float(rng.choice(zero)) if rng.random() < 0.4 else v
                  for v in rng.normal(size=4).tolist())
        for c in (1.0, 3.0):
            want = 0.5 * (a0 * IDENTITY2 + c * np.tensordot(a, PAULIS, axes=1))
            got = pauli_operator(0.5 * a0, [0.5 * c * v for v in a])
            assert got.tobytes() == want.tobytes(), (a0, a, c)


def test_pauli_decomposition_names_a_matrix_that_is_not_2x2():
    with pytest.raises(ValueError, match=r"^pauli_decomposition input must be 2x2, got shape \(3, 3\)$"):
        pauli_decomposition(np.eye(3))
