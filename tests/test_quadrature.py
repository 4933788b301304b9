import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from qbound import quadrature
from qbound.derivatives import R_MAX, R_MIN, new_log_derivative
from qbound.measurement import (
    EstimationContext,
    FamilyGrid,
    gaussian_sharp_family,
    tapered_sharp_family,
)
from qbound.metrics import husimi_classical_metric
from qbound.phasespace import husimi, husimi_partial, sw_kernel
from qbound.quadrature import (
    QuadSpec,
    QuadratureError,
    doubling_residual_sphere,
    integrate_1d,
    nodes_1d,
    sphere_integrate,
)
from qbound.qubit import ParamIndex, QubitState

from conftest import PI


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(panels=0)
    with pytest.raises(ValueError):
        QuadSpec(order=1)


def test_monomial():
    assert abs(integrate_1d(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) <= 1e-14


def test_cosine_over_period():
    assert abs(integrate_1d(np.cos, -PI, PI)) <= 1e-13


def test_truncated_gaussian_against_erf_oracle():
    # oracle: the integral equals erf(pi / (3 sqrt 2)) after substitution
    oracle = math.erf(PI / (3.0 * math.sqrt(2.0)))
    got = integrate_1d(
        lambda u: np.exp(-u * u / 18.0) / (3.0 * math.sqrt(2.0 * PI)), -PI, PI
    )
    assert abs(got - oracle) <= 1e-7
    assert abs(got - oracle) <= 1e-14  # the rule is exact to roundoff here


def test_split_sign_integrand_matches_half_interval_sums():
    spec = QuadSpec(panels=8, order=8, split_points=(0.0,))
    got = integrate_1d(lambda x: np.sign(x) * x * x, -1.0, 2.0, spec)
    assert abs(got - (-1.0 / 3.0 + 8.0 / 3.0)) <= 1e-12

    spec = QuadSpec(panels=8, order=8, split_points=(0.5,))
    got = integrate_1d(lambda x: np.abs(x - 0.5), 0.0, 1.0, spec)
    assert abs(got - 0.25) <= 1e-15


def test_splits_outside_interval_are_ignored():
    spec = QuadSpec(panels=4, order=6, split_points=(-3.0, 5.0, 0.2))
    assert abs(integrate_1d(lambda x: x, 0.0, 1.0, spec) - 0.5) <= 1e-14


def test_constant_integrand_broadcasts():
    assert abs(integrate_1d(lambda x: 1.0, 0.0, 2.0) - 2.0) <= 1e-14


def test_non_finite_sample_reports_abscissa():
    with pytest.raises(QuadratureError, match="abscissa"), np.errstate(divide="ignore"):
        integrate_1d(lambda x: 1.0 / (x - x), 0.0, 1.0, QuadSpec(2, 4))


def nodes_1d_loop(a, b, spec):
    """Reference: nodes_1d as a loop over pieces and panels."""
    splits = sorted(s for s in spec.split_points if a < s < b)
    breaks = [a, *splits, b]
    x0, w0 = leggauss(spec.order)
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(lo, hi, spec.panels + 1)
        for pa, pb in zip(edges[:-1], edges[1:]):
            half = 0.5 * (pb - pa)
            xs.append(0.5 * (pa + pb) + half * x0)
            ws.append(half * w0)
    return np.concatenate(xs), np.concatenate(ws)


def assert_nodes_match_loop(a, b, spec):
    x, w = nodes_1d(a, b, spec)
    x_ref, w_ref = nodes_1d_loop(a, b, spec)
    assert x.tobytes() == x_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()


@st.composite
def windows_and_specs(draw):
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(1e-6, 20.0))
    inside = draw(st.lists(st.floats(a, b), max_size=30))
    outside = draw(st.lists(st.floats(a - 5.0, a) | st.floats(b, b + 5.0), max_size=5))
    repeats = draw(st.lists(st.sampled_from(inside), max_size=10)) if inside else []
    splits = draw(st.permutations(inside + outside + repeats))
    return a, b, QuadSpec(draw(st.integers(1, 70)), draw(st.integers(2, 20)), tuple(splits))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(windows_and_specs())
# pieces so narrow that np.linspace's step underflows to zero
@example((0.0, 1.0, QuadSpec(64, 4, (5e-324, 1e-323))))
@example((0.0, 1.0, QuadSpec(5, 4, (1e-323,))))
# signed zeros that an unstable sort reorders
@example((-1.0, 1.0, QuadSpec(2, 4, (-0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, -0.0))))
def test_nodes_1d_matches_loop_bit_for_bit(case):
    assert_nodes_match_loop(*case)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1000, 4000))
def test_nodes_1d_one_panel_thousands_of_splits_matches_loop(seed, count):
    rng = np.random.default_rng(seed)
    splits = rng.uniform(-3.5, 3.5, count)
    splits = rng.permutation(np.concatenate([splits, splits[: count // 10]]))
    assert_nodes_match_loop(-PI, PI, QuadSpec(1, 4, tuple(splits)))


def test_nodes_1d_rejects_empty_window():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="need a < b"):
            nodes_1d(a, b, QuadSpec())


def test_doubling_residuals_are_tiny():
    q = husimi(QubitState(0.9, PI / 3, 1.0))
    assert doubling_residual_sphere(q) <= 1e-10
    # the Husimi metric's g_rr integrand, refined about its own pole at R_MAX
    state = QubitState(R_MAX, 2.0, 4.0)
    q = husimi(state)
    g_rr = lambda t, p: (q(t, p) - 0.5) ** 2 / (R_MAX**2 * q(t, p))
    assert doubling_residual_sphere(g_rr, pole=state.bloch) <= 1e-10


def sphere_monomial(a, b, c):
    """Integral of x^a y^b z^c against dmu = dA / (2 pi), from the Gamma-function
    formula for the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    g = math.lgamma((a + 1) / 2) + math.lgamma((b + 1) / 2) + math.lgamma((c + 1) / 2)
    return 2.0 * math.exp(g - math.lgamma((a + b + c + 3) / 2)) / (2.0 * PI)


def cartesian(t, p):
    return np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)


def test_sphere_rule_without_pole_is_exact_to_degree_31():
    worst = 0.0
    for deg in range(32):
        for a in range(deg + 1):
            for b in range(deg - a + 1):
                c = deg - a - b

                def mono(t, p, a=a, b=b, c=c):
                    x, y, z = cartesian(t, p)
                    return x**a * y**b * z**c

                worst = max(worst, abs(sphere_integrate(mono) - sphere_monomial(a, b, c)))
    assert worst <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pole=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: 1e-3 < np.linalg.norm(v) < 1),
    coef=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
)
def test_sphere_pole_keeps_quadratics(pole, coef):
    # any axis and grading integrates polynomials of degree <= 2 in Omega exactly
    def quad(t, p):
        x, y, z = cartesian(t, p)
        terms = (1.0, x, y, z, x * x, y * y, z * z, x * y, y * z, z * x)
        return sum(k * term for k, term in zip(coef, terms))

    assert abs(sphere_integrate(quad, pole=pole) - sphere_integrate(quad)) <= 1e-14


def test_sphere_pole_node_count_at_r_max():
    seen = []
    pole = QubitState(R_MAX, 1.0, 2.0).bloch
    sphere_integrate(lambda t, p: seen.append(t.size) or 1.0, pole=pole)
    assert seen[0] <= 2000


def test_sphere_rejects_pole_off_the_open_ball():
    for pole in ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (np.nan, 0.0, 0.5), (0.5, 0.0)):
        with pytest.raises(ValueError, match="pole"):
            sphere_integrate(lambda t, p: 1.0, pole=pole)


def test_gauss_rule_is_leggauss_bit_for_bit():
    for n in range(1, 301):
        x, w = quadrature._gauss.__wrapped__(n)
        x_ref, w_ref = leggauss(n)
        assert (x.tobytes(), w.tobytes()) == (x_ref.tobytes(), w_ref.tobytes()), n


def test_sphere_rule_is_built_once_per_pole_and_read_only():
    pole = QubitState(0.6, 1.1, 2.3).bloch
    rule = quadrature._sphere_nodes(pole)
    assert all(a is b for a, b in zip(rule, quadrature._sphere_nodes(pole.copy())))
    for a in (*rule, *quadrature._gauss(16)):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_sphere_rule_keys_the_sign_of_a_zero_pole_component():
    # phi1 = atan2(y, x) reads the sign of a zero y where the frame puts one
    plus, minus = np.array([-0.3, 0.0, -0.2]), np.array([-0.3, -0.0, -0.2])
    rules = [quadrature._sphere_nodes(plus), quadrature._sphere_nodes(minus)]
    assert rules[0][1].tobytes() != rules[1][1].tobytes()
    for pole, rule in zip((plus, minus), rules):
        fresh = quadrature._sphere_rule.__wrapped__(pole.tobytes(), False)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rule, fresh))


def test_sphere_rejects_an_invalid_pole_on_every_call():
    pole = np.array([0.1, 0.2, 0.3])
    quadrature._sphere_nodes(pole)
    # the same bytes in another shape must not reach the cached rule
    for bad in (pole.reshape(3, 1), (0.0, 0.0, 1.0), pole.reshape(3, 1)):
        with pytest.raises(ValueError, match="pole"):
            sphere_integrate(lambda t, p: 1.0, pole=bad)


def test_an_invalid_pole_raises_again_and_caches_nothing():
    quadrature._sphere_rule.cache_clear()
    quadrature._sphere_nodes(QubitState(0.4, 1.0, 2.0).bloch)
    templates = quadrature._frame_template.cache_info().currsize
    for bad in ((np.nan, 0.0, 0.5), (0.0, 0.0, 1.0), (0.6, 0.8, 0.1), (0.0, 0.0, 0.0)):
        for _ in range(2):
            with pytest.raises(ValueError, match="pole must be a 3-vector of length in"):
                quadrature._sphere_nodes(bad)
    assert quadrature._sphere_rule.cache_info().currsize == 1
    assert quadrature._frame_template.cache_info().currsize == templates


def _reference_levels(r):
    levels = 1
    while 2.0 * quadrature.GRADING ** levels >= quadrature.GRADING * (1.0 - r):
        levels += 1
    return levels


def _reference_sphere_rule(pole, refined):
    """The sphere rule built in one pass, with no cached template."""
    panels = 2 if refined else 1
    if pole is None:
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(panels, quadrature.SPHERE_ORDER))
        m = 2 * panels * quadrature.SPHERE_ORDER
        e1, e2, n = np.eye(3)
    else:
        r = float(np.linalg.norm(pole))
        levels = _reference_levels(r)
        splits = [-1.0 + 2.0 * quadrature.GRADING ** k for k in range(1, levels + refined + 1)]
        u, wu = nodes_1d(-1.0, 1.0, QuadSpec(panels, quadrature.SPHERE_ORDER, splits))
        m = 8 * panels
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
    return theta1, phi1, np.repeat(wu / m, m), quadrature._omega(theta1, phi1)


def test_the_cached_template_changes_no_bit_of_the_rule():
    rng = np.random.default_rng(2910)
    t = 10.0 ** np.linspace(math.log10(R_MIN), math.log10(0.5), 25)
    radii = np.concatenate([t, 1.0 - t, [R_MIN, R_MAX]])
    poles = [r * np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
             for r, th, ph in zip(radii, rng.uniform(0.0, PI, radii.size), rng.uniform(0.0, 2.0 * PI, radii.size))]
    poles += [np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.0, -0.5]),
              np.array([-0.3, 0.0, -0.2]), np.array([-0.3, -0.0, -0.2])]
    # the poles reach every grading depth of the working range
    assert {_reference_levels(float(np.linalg.norm(p))) for p in poles} == set(
        range(_reference_levels(R_MIN), _reference_levels(R_MAX) + 1))
    for pole in (None, *poles):
        for refined in (False, True):
            rule = quadrature._sphere_nodes(pole, refined)
            reference = _reference_sphere_rule(pole, refined)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(rule, reference)), (pole, refined)


def test_doubling_residual_builds_its_refined_rule():
    pole = QubitState(0.8, 0.7, 1.9).bloch
    quadrature._sphere_nodes(pole)
    seen = []
    doubling_residual_sphere(lambda t, p: seen.append(t.size) or np.ones_like(t), pole=pole)
    base, refined = seen
    assert refined > 4 * base
    assert quadrature._sphere_nodes(pole, refined=True)[0].size == refined


def test_one_state_builds_one_pole_rule():
    # three quadrature L_k and the quadrature Husimi metric share one rule;
    # each L_k looks it up twice, for Omega and in sphere_integrate
    quadrature._sphere_rule.cache_clear()
    s = QubitState(0.7, 1.2, 0.4)
    for k in ParamIndex:
        new_log_derivative(s, k, "quadrature")
    husimi_classical_metric(s, "quadrature")
    info = quadrature._sphere_rule.cache_info()
    assert (info.misses, info.hits) == (1, 6)


def test_sphere_rule_holds_the_unit_vectors_of_its_nodes():
    for pole in (None, QubitState(0.6, 1.1, 2.3).bloch):
        theta1, phi1, _, omega = quadrature._sphere_nodes(pole)
        assert omega.shape == theta1.shape + (3,)
        assert omega.tobytes() == quadrature._omega(theta1, phi1).tobytes()
        assert not omega.flags.writeable
        again = quadrature._sphere_nodes(None if pole is None else pole.copy())
        assert again[3] is omega


@pytest.mark.parametrize("pole", [None, (0.3, -0.4, 0.5)], ids=["no pole", "pole"])
@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf]],
                         ids=["nan", "inf", "-inf", "inf and -inf"])
@pytest.mark.parametrize("shape", [(), (4,), (3, 3)], ids=["scalar", "n x 4", "n x 3 x 3"])
def test_sphere_names_the_first_node_of_a_non_finite_value(shape, bad, pole):
    # the sum is taken first; a non-finite one is scanned for its node
    theta1 = quadrature._sphere_nodes(pole)[0]
    node = 137

    def field(t, p):
        vals = np.ones(t.shape + shape)
        for i, value in enumerate(bad):
            vals[(node + 5 * i,) + (-1,) * len(shape)] = value
        return vals

    where = re.escape(repr(float(theta1[node])))
    with pytest.raises(QuadratureError, match=f"^integrand is not finite at abscissa {where}$"):
        sphere_integrate(field, pole=pole)


@pytest.mark.parametrize("shape", [(), (4,)])
def test_sphere_sum_of_finite_values_that_overflows_is_inf(shape):
    # numpy's dot warns of the overflow; no node is blamed
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = sphere_integrate(lambda t, p: np.full(t.shape + shape, 1.5e308))
    assert np.all(got == math.inf)


ONE_D = QuadSpec(3, 8)


def _family_grid_integral(values):
    x, w = nodes_1d(-1.0, 1.0, ONE_D)
    return FamilyGrid(x, w, *[np.zeros_like(x)] * 6).integrate(values)


# each integral's node abscissae, and the integral of a given array of node values
INTEGRALS = {
    "integrate_1d": (nodes_1d(0.0, 2.0, ONE_D)[0],
                     lambda values: integrate_1d(lambda x: values, 0.0, 2.0, ONE_D)),
    "sphere_integrate": (quadrature._sphere_nodes(None)[0],
                         lambda values: sphere_integrate(lambda t, p: values)),
    "FamilyGrid.integrate": (nodes_1d(-1.0, 1.0, ONE_D)[0], _family_grid_integral),
}


@pytest.mark.parametrize("name", INTEGRALS)
def test_every_integral_treats_non_finite_values_alike(name):
    # one weighted sum: the same error text for a non-finite value, and inf
    # for finite values whose sum overflows
    x, integral = INTEGRALS[name]
    where = re.escape(repr(float(x[5])))
    for bad in ([math.nan], [math.inf], [math.inf, -math.inf]):
        values = np.ones(x.size)
        values[5:5 + len(bad)] = bad
        with pytest.raises(QuadratureError, match=f"^integrand is not finite at abscissa {where}$"):
            integral(values)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert integral(np.full(x.size, 1.7e308)) == math.inf


def test_sphere_total_measure():
    assert abs(sphere_integrate(lambda t, p: np.ones_like(t)) - 2.0) <= 1e-12
    # plain scalar constants broadcast too
    assert abs(sphere_integrate(lambda t, p: 1.0) - 2.0) <= 1e-12


def test_sphere_husimi_normalization():
    for r, th, ph in ((0.0, 1.0, 2.0), (0.5, PI / 2, 0.3), (0.97, 2.8, 5.5)):
        q = husimi(QubitState(r, th, ph))
        assert abs(sphere_integrate(q) - 1.0) <= 1e-10


def test_sphere_kernel_average_is_identity():
    # only the isotropic kernel term survives the angular integration
    for s in (-1.0, 1.0):
        avg = sphere_integrate(lambda t, p, s=s: sw_kernel(t, p, s))
        assert np.max(np.abs(avg - np.eye(2))) <= 1e-10


def test_sphere_matrix_constant_broadcasts():
    const = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    got = sphere_integrate(lambda t, p: const)
    assert np.max(np.abs(got - 2.0 * const)) <= 1e-12


def test_sphere_integrates_a_matrix_field_in_one_call():
    # <Omega_i Omega_j> = delta_ij / 3 over a total measure of 2
    def outer(t, p):
        omega = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
        return omega[:, :, None] * omega[:, None, :]

    got = sphere_integrate(outer)
    assert got.shape == (3, 3)
    assert np.max(np.abs(got - 2.0 / 3.0 * np.eye(3))) <= 1e-15


def test_sphere_rejects_bad_shapes():
    n = quadrature._sphere_nodes(None)[0].size
    message = ("sphere integrand must broadcast to a field with one value per node; "
               f"got shape (3,) for {n} nodes")
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        sphere_integrate(lambda t, p: np.zeros(3))


# sha256 over every sphere-rule output at six states, recorded with numpy 2.4
# on x86-64 while the sphere functions still took a QuadSpec.  The rule is
# fixed, so these bits may only move with a deliberate change to it; another
# platform may round differently.
SPHERE_PIN = "dd96c4f7fba30bfaab1b64b02b71cec16e0147bb26e32e760c8fac3d982f173d"


def test_sphere_rule_outputs_are_pinned():
    digest = hashlib.sha256()
    for r, theta, phi in ((0.1, 1.0, 2.0), (0.5, PI / 2, 0.3), (0.9, 2.8, 5.5),
                          (0.999, 0.4, 4.0), (R_MAX, 2.0, 4.0), (0.7, 0.0, 0.0)):
        s = QubitState(r, theta, phi)
        q, dq = husimi(s), husimi_partial(s, ParamIndex.R)
        outputs = [
            husimi_classical_metric(s, "quadrature"),
            *(new_log_derivative(s, k, "quadrature") for k in ParamIndex),
            sphere_integrate(q),
            sphere_integrate(q, pole=s.bloch),
            doubling_residual_sphere(q),
            doubling_residual_sphere(lambda t, p: dq(t, p) ** 2 / q(t, p), pole=s.bloch),
        ]
        for value in outputs:
            digest.update(np.asarray(value, dtype=complex).tobytes())
    assert digest.hexdigest() == SPHERE_PIN


# sha256 over the six element arrays at chosen abscissae and over every grid
# array of Gaussian and tapered sharp families at two contexts, one with
# eps != 0, recorded with numpy 2.4 on x86-64 before each family's profile
# and its derivative became one function.  The abscissae take in mu and both
# window edges, where the sharp families jump and the tapered ones vanish.
FAMILY_PIN = "6a13ad31f26faf29e14f089ff0972265f0b1c74bca53ed2ff3239e473a38554a"


def test_family_element_and_grid_outputs_are_pinned():
    digest = hashlib.sha256()
    for ctx in (EstimationContext(QubitState(0.5, 1.0, 0.3)),
                EstimationContext(QubitState(0.8, 2.0, 3 * PI / 4), eps=0.25)):
        families = [gaussian_sharp_family(ctx, sigma=s) for s in (0.05, 3.0, 100.0)]
        families += [tapered_sharp_family(ctx, sigma=s, taper_power=k, offdiag_scale=scale)
                     for k in (1, 3) for scale in (1.0, -0.6) for s in (1.0, math.inf)]
        for family in families:
            lo, hi = family.window
            mu = family.center
            u = np.concatenate([np.linspace(lo, hi, 97), [mu, mu - 1e-9, mu + 1e-9, lo, hi]])
            grid = family.grid()
            for value in (*family.elements(u), grid.x, grid.w,
                          *(getattr(grid, name) for name in ("x11", "x12", "y12",
                                                              "d_x11", "d_x12", "d_y12"))):
                digest.update(np.asarray(value, dtype=float).tobytes())
    assert digest.hexdigest() == FAMILY_PIN
