import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound.phasespace import husimi, husimi_partial, inverse_weyl, sw_kernel, weyl_map
from qbound.quadrature import sphere_integrate
from qbound.qubit import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z, ParamIndex, QubitState, density_matrix

from conftest import PI, grid_12, grid_36


def test_kernel_north_pole_values():
    assert np.max(np.abs(sw_kernel(0.0, 0.0, -1.0) - np.diag([1.0, 0.0]))) <= 1e-15
    assert np.max(np.abs(sw_kernel(0.0, 0.0, +1.0) - np.diag([2.0, -1.0]))) <= 1e-15


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    t1=st.floats(0.0, PI),
    p1=st.floats(0.0, 2 * PI),
    s=st.sampled_from([-1.0, 1.0]),
)
def test_kernel_hermitian_unit_trace(t1, p1, s):
    kern = sw_kernel(t1, p1, s)
    assert abs(np.trace(kern) - 1.0) <= 1e-14
    assert np.max(np.abs(kern - kern.conj().T)) <= 1e-14


def test_kernel_broadcasts():
    t = np.linspace(0, PI, 7)
    p = np.linspace(0, 2 * PI, 7)
    kern = sw_kernel(t, p, -1.0)
    assert kern.shape == (7, 2, 2)


def test_kernel_index_other_than_plus_minus_one_is_rejected():
    for call in (lambda: sw_kernel(0.1, 0.2, 0.5),
                 lambda: weyl_map(IDENTITY2, 0.5),
                 lambda: inverse_weyl(lambda t, p: 1.0, 0.5)):
        with pytest.raises(ValueError, match="s = 0.5"):
            call()


def test_weyl_map_identity_is_one():
    for s in (-1.0, 1.0):
        f = weyl_map(IDENTITY2, s)
        pts = np.linspace(0.1, 3.0, 5)
        assert np.max(np.abs(f(pts, pts) - 1.0)) <= 1e-14


def test_weyl_map_sigma_z_is_costheta():
    # trace algebra: tr(sigma_z Delta(.;-1)) = cos(theta1)
    f = weyl_map(PAULI_Z, -1.0)
    t = np.linspace(0.0, PI, 11)
    p = np.linspace(0.0, 2 * PI, 11)
    assert np.max(np.abs(f(t, p) - np.cos(t))) <= 1e-14


def test_weyl_map_of_state_is_husimi():
    for r, th, ph in grid_12():
        state = QubitState(r, th, ph)
        f = weyl_map(density_matrix(state), -1.0)
        q = husimi(state)
        t = np.linspace(0.0, PI, 13)
        p = np.linspace(0.0, 2 * PI, 13)
        assert np.max(np.abs(f(t, p) - q(t, p))) <= 1e-13


def test_weyl_map_requires_hermitian():
    with pytest.raises(ValueError, match="^weyl_map input is not Hermitian"):
        weyl_map(np.array([[0, 1], [0, 0]], dtype=complex), -1.0)


def test_weyl_map_checks_hermiticity_once(monkeypatch):
    from qbound import qubit

    calls = []
    check = qubit.require_hermitian

    def counted(m, name):
        calls.append(name)
        return check(m, name)

    monkeypatch.setattr(qubit, "require_hermitian", counted)
    weyl_map(PAULI_X, -1.0)
    assert calls == ["weyl_map input"]


def test_inverse_weyl_of_constant_one():
    for s in (-1.0, 1.0):
        op = inverse_weyl(lambda t, p: np.ones_like(t), s)
        assert np.max(np.abs(op - IDENTITY2)) <= 1e-10


def test_inverse_weyl_broadcasts_a_constant_symbol():
    # a symbol may return a scalar; it reads as that value at every node
    for s in (-1.0, 1.0):
        op = inverse_weyl(lambda t, p: 1.0, s)
        assert np.array_equal(op, inverse_weyl(lambda t, p: np.ones_like(t), s))
        assert np.max(np.abs(op - IDENTITY2)) <= 1e-10


def test_roundtrip_on_pauli_basis():
    for s in (-1.0, 1.0):
        for op in (IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z):
            back = inverse_weyl(weyl_map(op, s), s)
            assert np.max(np.abs(back - op)) <= 1e-10


def test_roundtrip_on_states():
    for r, th, ph in grid_12():
        rho = density_matrix(QubitState(r, th, ph))
        back = inverse_weyl(weyl_map(rho, -1.0), -1.0)
        assert np.max(np.abs(back - rho)) <= 1e-10


def test_costheta_symbol_roundtrip():
    # the operator whose s=+1 symbol is cos(theta1), checked by re-applying the map
    op = inverse_weyl(lambda t, p: np.cos(t), +1.0)
    f = weyl_map(op, +1.0)
    t = np.linspace(0.0, PI, 17)
    p = np.linspace(0.0, 2 * PI, 17)
    assert np.max(np.abs(f(t, p) - np.cos(t))) <= 1e-10


def test_husimi_values():
    state = QubitState(0.4, 1.1, 2.2)
    q = husimi(state)
    # at the state direction and its antipode
    assert abs(q(state.theta, state.phi) - (1 + state.r) / 2) <= 1e-14
    assert abs(q(PI - state.theta, state.phi + PI) - (1 - state.r) / 2) <= 1e-14
    flat = husimi(QubitState(0.0, 0.5, 0.5))
    assert abs(flat(0.7, 3.0) - 0.5) <= 1e-15


def test_husimi_range_on_sphere_grid():
    t = np.linspace(0.0, PI, 101)
    p = np.linspace(0.0, 2 * PI, 101)
    T, P = np.meshgrid(t, p)
    for r, th, ph in grid_36():
        q_func = husimi(QubitState(r, th, ph))
        q = q_func(T, P)
        assert q.min() >= (1 - r) / 2 - 1e-12
        assert q.max() <= (1 + r) / 2 + 1e-12
        # extremes are attained along/against the state direction
        assert abs(q_func(th, ph) - (1 + r) / 2) <= 1e-12
        assert abs(q_func(PI - th, ph + PI) - (1 - r) / 2) <= 1e-12


def test_husimi_partials_match_finite_differences():
    h = 1e-6
    t = np.linspace(0.3, 2.8, 7)
    p = np.linspace(0.2, 6.0, 7)
    base = dict(r=0.6, theta=1.0, phi=2.0)
    for k, name in ((ParamIndex.R, "r"), (ParamIndex.THETA, "theta"), (ParamIndex.PHI, "phi")):
        up, dn = dict(base), dict(base)
        up[name] += h
        dn[name] -= h
        fd = (husimi(QubitState(**up))(t, p) - husimi(QubitState(**dn))(t, p)) / (2 * h)
        got = husimi_partial(QubitState(**base), k)(t, p)
        assert np.max(np.abs(fd - got)) <= 1e-9


def test_husimi_normalization():
    for r, th, ph in grid_12():
        q = husimi(QubitState(r, th, ph))
        assert abs(sphere_integrate(q) - 1.0) <= 1e-10
