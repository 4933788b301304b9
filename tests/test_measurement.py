import csv
import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbound import measurement

from qbound.bounds import _r_free_integrals, ab_coefficients, audit_derivation
from qbound.derivatives import deviation_h, new_log_derivative
from qbound.measurement import (
    ELEMENT_NAMES,
    EstimationContext,
    FamilyGrid,
    _inverse_cdf,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    outcome_distribution,
    sample_outcomes,
    tabulated_family,
    tapered_sharp_family,
    trace_with_elements,
    validate_povm,
)
from qbound.quadrature import QuadSpec, QuadratureError, integrate_1d, nodes_1d
from qbound.qubit import DomainError, ParamIndex, QubitState, d_rho, density_matrix

from conftest import PI, SharpOracle, grid_36

STANDARD = QubitState(0.5, PI / 2, 3 * PI / 4)


def standard_ctx(eps=0.0):
    return EstimationContext(STANDARD, eps=eps)


def uniform_diagonal_family(center):
    """Flat diagonal family: x11 = 1/(2 pi), x12 = y12 = 0."""
    grid = np.linspace(center - PI, center + PI, 33)
    flat = np.full_like(grid, 1.0 / (2.0 * PI))
    zeros = np.zeros_like(grid)
    return tabulated_family(grid, flat, zeros, zeros, label="uniform")


# ------------------------------------------------------------------- contexts
def test_context_defaults_to_state_phi():
    ctx = standard_ctx()
    assert abs(ctx.center - STANDARD.phi) <= 1e-15


def test_context_rejects_cos_zero():
    with pytest.raises(DomainError):
        EstimationContext(QubitState(0.5, 1.0, PI / 2))


# --------------------------------------------------------------- sharp family
def test_sharp_family_normalization():
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    total = integrate_1d(lambda u: fam.elements(u)[0], lo, hi, fam.quad_spec())
    assert abs(total - 1.0) <= 1e-10


def test_sharp_family_edge_value():
    oracle = SharpOracle(3.0)
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    assert abs(float(fam.elements(hi)[0]) - oracle.x11_edge) <= 1e-14
    assert abs(float(fam.elements(lo)[0]) - float(fam.elements(hi)[0])) <= 1e-16


def test_sharp_family_eigenvalues():
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    u = np.linspace(lo, hi, 4001)
    u = u[np.abs(u - fam.center) > 1e-9]
    lam1, lam2 = fam.eigenvalues(u)
    assert np.max(np.abs(lam1)) <= 1e-12
    assert np.max(np.abs(lam2 - 2.0 * np.asarray(fam.elements(u)[0]))) <= 1e-12
    # at the center the sign factor is zero and both eigenvalues collapse
    c1, c2 = fam.eigenvalues(fam.center)
    assert abs(c1 - c2) <= 1e-15


def test_sharp_family_rejects_bad_sigma():
    with pytest.raises(DomainError):
        gaussian_sharp_family(standard_ctx(), sigma=0.0)


def test_families_reject_nan_parameters():
    ctx = standard_ctx()
    for build in (gaussian_sharp_family, tapered_sharp_family):
        with pytest.raises(DomainError, match="sigma must be positive"):
            build(ctx, sigma=math.nan)
    with pytest.raises(DomainError, match="offdiag_scale"):
        tapered_sharp_family(ctx, offdiag_scale=math.nan)


def test_tapered_family_takes_integral_powers_only():
    ctx = standard_ctx()
    for power in (1.5, 0, 0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="taper_power must be an integer >= 1"):
            tapered_sharp_family(ctx, taper_power=power)
    assert tapered_sharp_family(ctx, taper_power=2.0).label == tapered_sharp_family(
        ctx, taper_power=2).label == "tapered-sharp(sigma=3,k=2,scale=1)"


def test_sharp_family_derivatives_match_finite_differences():
    # total parameter derivative: compare against families rebuilt at mu +/- h
    h = 1e-6
    base = QubitState(0.5, PI / 2, 3 * PI / 4)
    up = EstimationContext(base, eps=+h)
    dn = EstimationContext(base, eps=-h)
    fam = gaussian_sharp_family(EstimationContext(base))
    fam_up = gaussian_sharp_family(up)
    fam_dn = gaussian_sharp_family(dn)
    # construction angle moves with the parameter as well
    up_c = EstimationContext(QubitState(0.5, PI / 2, base.phi + h))
    dn_c = EstimationContext(QubitState(0.5, PI / 2, base.phi - h))
    fam_up_c = gaussian_sharp_family(up_c)
    fam_dn_c = gaussian_sharp_family(dn_c)
    pts = np.array([base.phi - 2.0, base.phi - 0.5, base.phi + 0.7, base.phi + 2.5])
    # x11 against the moved window, x12 and y12 against the moved angle
    moved = ((fam_up, fam_dn), (fam_up_c, fam_dn_c), (fam_up_c, fam_dn_c))
    for i, ((f_up, f_dn), d) in enumerate(zip(moved, fam.elements(pts)[3:])):
        fd = (np.asarray(f_up.elements(pts)[i]) - np.asarray(f_dn.elements(pts)[i])) / (2 * h)
        assert np.max(np.abs(fd - np.asarray(d))) <= 1e-6, measurement.ELEMENT_NAMES[i]


# ------------------------------------------------------------------ validation
def test_validate_sharp_family():
    ctx = standard_ctx()
    rep = validate_povm(gaussian_sharp_family(ctx), ctx)
    assert rep.completeness_residual <= 1e-9
    assert rep.min_eigenvalue >= -1e-12
    assert rep.x11_symmetry_residual <= 1e-12
    assert rep.x12_mean_residual <= 1e-12
    assert rep.y12_mean_residual <= 1e-12
    assert abs(rep.unbiasedness_residual) <= 1e-9
    assert rep.sign_conditions_ok
    assert rep.all_ok


def test_validate_evaluates_its_interior_scan_once():
    # the eigenvalue and sign checks read one evaluation on the interior grid
    ctx = standard_ctx(eps=0.4)
    for fam in (gaussian_sharp_family(ctx), tapered_sharp_family(ctx, offdiag_scale=-0.5),
                uniform_diagonal_family(ctx.center)):
        sizes = []

        def counted(u, elements=fam.elements):
            sizes.append(np.size(u))
            return elements(u)

        rep = validate_povm(dataclasses.replace(fam, elements=counted), ctx)
        scan = (measurement.VALIDATION_SCAN - 2, measurement.VALIDATION_SCAN - 1)
        assert sum(n in scan for n in sizes) == 1, sizes
        u = np.linspace(*fam.window, measurement.VALIDATION_SCAN)[1:-1]
        assert rep.min_eigenvalue == float(np.min(fam.eigenvalues(u)[0]))


def test_validate_flags_unnormalized_family():
    ctx = standard_ctx()
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 17)
    fam = tabulated_family(grid, np.full_like(grid, 1.0 / PI), np.zeros_like(grid),
                           np.zeros_like(grid))
    rep = validate_povm(fam, ctx)
    assert abs(rep.completeness_residual - 1.0) <= 1e-9
    assert not rep.completeness_ok
    assert not rep.all_ok


def test_validate_reports_an_overflowed_residual_as_inf():
    # finite elements whose window integral overflows: inf, and no warning,
    # which the RuntimeWarning filter would turn into an error
    ctx = standard_ctx()
    big = np.full(2, 1.7e308)
    fam = tabulated_family([-1.0, 1.0], big, np.zeros(2), np.zeros(2))
    rep = validate_povm(fam, ctx)
    assert rep.completeness_residual == math.inf
    assert not rep.completeness_ok
    assert not rep.all_ok


def test_validate_flags_sign_violation():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, offdiag_scale=-0.5)
    rep = validate_povm(fam, ctx)
    assert not rep.sign_conditions_ok
    assert rep.positivity_ok  # still a valid POVM


def test_validate_tapered_family():
    ctx = standard_ctx()
    fam = tapered_sharp_family(ctx, sigma=2.5, taper_power=2, offdiag_scale=0.7)
    rep = validate_povm(fam, ctx)
    assert rep.all_ok
    lo, hi = fam.window
    assert abs(float(fam.elements(lo)[0])) <= 1e-15
    assert abs(float(fam.elements(hi)[0])) <= 1e-15
    # small eigenvalue is (1 - scale) * x11
    u = np.linspace(lo, hi, 101)[1:-1]
    lam1, _ = fam.eigenvalues(u)
    assert np.max(np.abs(lam1 - 0.3 * np.asarray(fam.elements(u)[0]))) <= 1e-12


# ---------------------------------------------------------------- distribution
def test_outcome_density_equals_x11_at_construction_angle():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 501)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.elements(pts)[0]))) <= 1e-15


def test_outcome_density_maximally_mixed():
    state = QubitState(0.0, PI / 2, 3 * PI / 4)
    ctx = EstimationContext(state)
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 201)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.elements(pts)[0]))) <= 1e-16


def test_outcome_density_normalized_on_grid():
    for r, th, ph in grid_36():
        state = QubitState(r, th, ph)
        ctx = EstimationContext(state)
        fam = gaussian_sharp_family(ctx)
        dist = outcome_distribution(ctx, fam)
        total = integrate_1d(dist.pdf, *fam.window, fam.quad_spec())
        assert abs(total - 1.0) <= 1e-9


def test_outcome_distribution_rejects_negative_density():
    ctx = EstimationContext(QubitState(0.9, PI / 2, 3 * PI / 4))
    base = gaussian_sharp_family(ctx)

    def big_offdiag(u):
        x11, _, *rest = base.elements(u)
        return (x11, 3.0 * np.asarray(x11), *rest)

    bogus = dataclasses.replace(base, elements=big_offdiag)
    with pytest.raises(DomainError, match=r"phi_hat = -?\d[\d.e+-]*$") as exc:
        outcome_distribution(ctx, bogus)
    # the abscissa named is a node of the sampling grid, where the least value is
    where = float(str(exc.value).rsplit("= ", 1)[1])
    lo, hi = base.window
    grid = np.union1d(np.linspace(lo, hi, measurement.SAMPLING_NODES), base.discontinuities)
    assert where in grid
    vals = trace_with_elements(density_matrix(ctx.state), *bogus.elements(grid)[:3])
    assert where == grid[np.argmin(vals)]


def test_outcome_distribution_rejects_a_density_without_mass():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)

    def vanishing(u):
        return tuple(np.zeros_like(np.asarray(u, dtype=float)) for _ in ELEMENT_NAMES)

    with pytest.raises(ValueError, match="positive finite mass"):
        outcome_distribution(ctx, dataclasses.replace(base, elements=vanishing))


def test_a_distribution_evaluates_its_family_once_and_sampling_never():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)
    calls = []

    def spy(u):
        calls.append(np.size(u))
        return base.elements(u)

    dist = outcome_distribution(ctx, dataclasses.replace(base, elements=spy))
    assert calls == [dist.grid.size]
    for n in (0, 1000):
        sample_outcomes(dist, n, seed=1)
    assert calls == [dist.grid.size]
    assert not dist.grid.flags.writeable and not dist.cdf.flags.writeable
    assert dist.cdf[0] == 0.0 and dist.cdf[-1] == 1.0


# ----------------------------------------------------------------- family grid
GRID_ARRAYS = ("x", "w", *ELEMENT_NAMES)


def test_family_grid_is_built_afresh_bit_equal_and_read_only():
    fam = gaussian_sharp_family(standard_ctx())
    one, two, default = fam.grid(), fam.grid(), dataclasses.replace(fam, spec=QuadSpec()).grid()
    assert one is not two
    for name in GRID_ARRAYS:
        arrays = [getattr(g, name) for g in (one, two, default)]
        assert len({a.tobytes() for a in arrays}) == 1, name
        assert not any(a.flags.writeable for a in arrays), name
    assert dataclasses.replace(fam, spec=fam.spec.doubled()).grid().x.size == 2 * one.x.size


def test_family_grid_keeps_the_spec_split_points():
    fam = gaussian_sharp_family(standard_ctx())
    split = dataclasses.replace(fam, spec=QuadSpec(64, 16, (1.0,)))
    assert split.quad_spec().split_points == (fam.center, 1.0)
    x = split.grid().x
    # three pieces of 64 panels x 16 nodes; the first ends at the spec's split
    assert x.size == 3 * 64 * 16
    assert x[1023] < 1.0 < x[1024]
    # a split that is already a discontinuity adds no piece
    same = dataclasses.replace(fam, spec=QuadSpec(64, 16, (fam.center,)))
    assert same.grid().x.tobytes() == fam.grid().x.tobytes()


def test_family_grid_integral_names_the_first_non_finite_abscissa():
    # splits (0, 0) make a zero-width piece whose nodes have weight 0, where
    # the dot meets 0 * nan and 0 * inf
    x, w = nodes_1d(-1.0, 1.0, QuadSpec(2, 3, (0.0, 0.0)))
    zero_weight = int(np.flatnonzero(w == 0.0)[0])
    zeros = np.zeros_like(x)
    grid = FamilyGrid(x, w, *[zeros] * 6)
    for at in (0, x.size - 1, zero_weight):
        for bad in (math.nan, math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, -math.inf)):
            values = np.ones(x.size, dtype=type(bad))
            values[at] = bad
            if at != x.size - 1:
                values[-1] = math.nan  # a later bad value is not the one named
            with pytest.raises(QuadratureError, match=f"at abscissa {re.escape(repr(float(x[at])))}$"):
                grid.integrate(values)


def test_family_grid_integral_of_finite_values_may_overflow_to_inf():
    x, w = nodes_1d(-1.0, 1.0, QuadSpec(2, 3))
    grid = FamilyGrid(x, w, *[np.zeros_like(x)] * 6)
    with np.errstate(over="ignore"):
        assert grid.integrate(np.full(x.size, 1.7e308)) == math.inf
        assert grid.integrate(np.full(x.size, -1.7e308)) == -math.inf


# ----------------------------------------------------------------- moment table
# Table reads against the node-level contractions they replaced, in units of
# the window integral of the absolute integrand; measured up to 5.1e-16 at
# |eps| = 0.5.  The table's moments are taken about the window center, so
# the shift to phi can cancel as |eps| grows.
TABLE_RTOL = 1e-14


def _reference_table(ctx, g):
    """The old node-level integrands: (value, integral of |integrand|)."""
    state = ctx.state
    phi, mu = state.phi, g.center
    rho = density_matrix(state)
    q = _reference_trace(rho, g.x11, g.x12, g.y12).real
    tr_dpi = _reference_trace(rho, g.d_x11, g.d_x12, g.d_y12).real
    below = g.x < mu
    cos_c = math.cos(phi)
    integrands = {
        "v": (g.x - phi) ** 2 * q,
        "a": phi * tr_dpi,
        "1 - b": g.x * tr_dpi,
        "I1": np.where(below, (g.x - mu) * g.x11 + ctx.eps * g.y12 / cos_c, 0.0),
        "I2": np.where(below, 0.0, (g.x - phi) * g.x11),
        "C offdiag": (g.x - phi) * (math.sin(phi) * g.x12 + cos_c * g.y12),
        "unbiasedness": (g.x - mu) * q,
    }
    return {k: (g.w @ f, g.w @ np.abs(f)) for k, f in integrands.items()}


def _table_reads(ctx, fam):
    a, b = ab_coefficients(ctx, fam)
    I1, I2, offdiag = _r_free_integrals(ctx, fam.grid())
    return {
        "v": estimator_moments(ctx, fam)[1],
        "a": a,
        "1 - b": 1.0 - b,
        "I1": I1,
        "I2": I2,
        "C offdiag": offdiag,
        "unbiasedness": validate_povm(fam, ctx).unbiasedness_residual,
    }


def test_moment_table_matches_the_node_level_reference():
    for eps in (0.5, -0.5):
        for state in (QubitState(0.3, 0.7, 0.4), QubitState(0.9, 2.0, 2.5), QubitState(0.6, 1.3, 5.0)):
            ctx = EstimationContext(state, eps=eps)
            families = [gaussian_sharp_family(ctx, sigma) for sigma in (0.5, 3.0, 20.0)]
            families += [tapered_sharp_family(ctx, taper_power=k, offdiag_scale=0.7) for k in (1, 3)]
            base = gaussian_sharp_family(ctx)
            nodes = np.linspace(*base.window, 401)
            families.append(tabulated_family(nodes, *base.elements(nodes)[:3]))
            for fam in families:
                ref = _reference_table(ctx, fam.grid())
                for key, got in _table_reads(ctx, fam).items():
                    want, scale = ref[key]
                    assert abs(got - want) <= TABLE_RTOL * scale, (fam.label, eps, key, got, want)


def _iterated_moment(g, name, j, side):
    """The moment as the product w (x - center)^j built up factor by factor
    on the side's own slice of the nodes."""
    k = int(np.searchsorted(g.x, g.center))
    part = (slice(None), slice(k, None), slice(None, k))[side]
    wj = g.w[part]
    for _ in range(j):
        wj = wj * (g.x[part] - g.center)
    return float(wj @ getattr(g, name)[part])


def test_moment_is_the_iterated_per_side_product_bit_for_bit():
    ctx = standard_ctx(eps=0.3)
    base = gaussian_sharp_family(ctx, sigma=0.8)
    nodes = np.linspace(*base.window, 401)
    families = (base, tapered_sharp_family(ctx, taper_power=2, offdiag_scale=0.7),
                tabulated_family(nodes, *base.elements(nodes)[:3]))
    for fam in families:
        g = fam.grid()
        for name in ELEMENT_NAMES:
            for j in range(3):
                for side in (-1, 0, 1):
                    want = _iterated_moment(g, name, j, side)
                    assert g.moment(name, j, side) == want, (fam.label, name, j, side)


# ----------------------------------------------------------------- trace kernel
def _reference_trace(m, x11, x12, y12):
    """tr(M Pi) in complex arithmetic: the expression the kernel replaced."""
    return (m[0, 0] + m[1, 1]) * x11 + m[0, 1] * (x12 - 1j * y12) + m[1, 0] * (x12 + 1j * y12)


# kernel vs reference, in units of eps * sum |terms| (plus a few subnormals
# for products that underflow)
KERNEL_ULPS = 8
MODERATE = st.floats(-1e100, 1e100)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(entries=st.lists(MODERATE, min_size=8, max_size=8), hermitian=st.booleans(),
       nodes=st.lists(st.tuples(MODERATE, MODERATE, MODERATE), min_size=1, max_size=8))
def test_trace_kernel_matches_the_complex_expression(entries, hermitian, nodes):
    a, b, c, d, e, f, g, h = entries
    if hermitian:
        m = np.array([[a, complex(b, c)], [complex(b, -c), d]], dtype=complex)
    else:
        m = np.array([[complex(a, e), complex(b, c)], [complex(f, g), complex(d, h)]])
    x11, x12, y12 = (np.array(col) for col in zip(*nodes))
    got = trace_with_elements(m, x11, x12, y12)
    ref = _reference_trace(m, x11, x12, y12)
    terms = (abs(m[0, 0] + m[1, 1]) * np.abs(x11)
             + (abs(m[0, 1]) + abs(m[1, 0])) * (np.abs(x12) + np.abs(y12)))
    bound = KERNEL_ULPS * (np.finfo(float).eps * terms + np.finfo(float).smallest_subnormal)
    assert np.all(np.abs(got.real - ref.real) <= bound)
    assert np.all(np.abs(np.imag(got) - ref.imag) <= bound)
    assert np.isrealobj(got) == np.array_equal(m, m.conj().T)


def test_trace_kernel_is_real_for_rho_its_derivative_and_h():
    g = gaussian_sharp_family(standard_ctx(eps=0.1)).grid()
    for m in (density_matrix(STANDARD), d_rho(STANDARD, ParamIndex.PHI),
              deviation_h(STANDARD, ParamIndex.R), deviation_h(STANDARD, ParamIndex.PHI)):
        assert g.trace(m).dtype == np.float64
        assert trace_with_elements(m, g.d_x11, g.d_x12, g.d_y12).dtype == np.float64


def test_audit_cross_term_keeps_its_imaginary_part():
    # a family built away from the state's azimuth: int (phi_hat - phi)
    # tr(rho L_phi Pi) has an imaginary part, and |cross|^2 keeps it
    state = QubitState(0.5, 1.0, 0.9)
    fam = gaussian_sharp_family(EstimationContext(QubitState(0.5, 1.0, 0.3)))
    g = fam.grid()
    rho_l3 = density_matrix(state) @ new_log_derivative(state, ParamIndex.PHI)
    tr = g.trace(rho_l3)
    assert np.iscomplexobj(tr)
    ref = _reference_trace(rho_l3, g.x11, g.x12, g.y12)
    assert np.max(np.abs(tr - ref)) <= 1e-15 * np.max(np.abs(ref))
    cross_ref = g.w @ ((g.x - state.phi) * ref)
    assert abs(cross_ref.imag) > 0.05
    rep = audit_derivation(EstimationContext(state), fam)
    assert abs(rep["cross_term_real"] - cross_ref.real) <= 1e-14
    assert abs(rep["schwarz_mid"] - abs(cross_ref) ** 2) <= 1e-14
    assert abs((rep["schwarz_mid"] - rep["cross_term_real"] ** 2) - cross_ref.imag ** 2) <= 1e-14


# --------------------------------------------------------------------- moments
def test_moments_mean_is_phi():
    ctx = standard_ctx()
    mean, _ = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(mean - STANDARD.phi) <= 1e-9


def test_moments_variance_matches_truncated_gaussian_oracle():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    _, var = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(var - oracle.variance) <= 1e-10
    assert abs(var - 2.8347) <= 1e-3


def test_moments_with_offset_window():
    eps = 0.25
    ctx = standard_ctx(eps=eps)
    mean, var = estimator_moments(ctx, gaussian_sharp_family(ctx))
    assert abs(mean - (STANDARD.phi + eps)) <= 1e-9
    # second moment about the true phi picks up the bias squared
    oracle = SharpOracle(3.0)
    assert abs(var - (oracle.variance + eps * eps)) <= 1e-9


# -------------------------------------------------------------------- sampling
def test_sampling_deterministic():
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    one = sample_outcomes(dist, 1000, seed=42)
    two = sample_outcomes(dist, 1000, seed=42)
    assert np.array_equal(one, two)
    other = sample_outcomes(dist, 1000, seed=43)
    assert not np.array_equal(one, other)


def test_sampling_empty_and_validation():
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    assert sample_outcomes(dist, 0, seed=1).size == 0
    with pytest.raises(ValueError):
        sample_outcomes(dist, -1, seed=1)


@pytest.mark.parametrize("discontinuities", [
    (1.0, 1.0, 1.0),
    (0.0, -0.0, 0.0, -0.0),
    (-0.0, 0.0),
    "nodes",
], ids=["repeated", "signed-zeros", "zeros-negative-first", "on-linspace-nodes"])
def test_sampling_grid_equals_np_unique(discontinuities):
    ctx = EstimationContext(QubitState(0.5, 1.1, 0.0))
    family = gaussian_sharp_family(ctx)
    nodes = np.linspace(*family.window, measurement.SAMPLING_NODES)
    if discontinuities == "nodes":
        discontinuities = (*nodes[[0, 7, 4095, 4095, 8191]].tolist(), -0.0, 0.0)
    family = dataclasses.replace(family, discontinuities=discontinuities)
    grid = outcome_distribution(ctx, family).grid
    assert grid.tobytes() == np.unique(np.concatenate([nodes, discontinuities])).tobytes()


SKEW = EstimationContext(QubitState(0.5, 1.1, 2.5))


@pytest.mark.parametrize("u, shown", [
    (1.0, "1.0"), (np.nan, "nan"), (-0.1, "-0.1"), (-1e-300, "-1e-300"), (np.inf, "inf"),
])
def test_inverse_cdf_rejects_u_outside_the_unit_interval(u, shown):
    dist = outcome_distribution(SKEW, gaussian_sharp_family(SKEW))
    with pytest.raises(ValueError, match=re.escape(f"got {shown}")):
        dist.inverse_cdf(np.array([0.5, u, 2.0]))


def test_inverse_cdf_returns_a_new_array_and_keeps_u():
    dist = outcome_distribution(SKEW, gaussian_sharp_family(SKEW))
    u = np.random.default_rng(5).random(1000)
    u[:2] = 0.0, np.nextafter(1.0, 0.0)
    kept = u.copy()
    out = dist.inverse_cdf(u)
    assert out is not u and same_bits(u, kept)
    assert same_bits(out, np.interp(u, dist.cdf, dist.grid))
    for shaped in (u[7], u[:12].reshape(3, 4)):
        assert same_bits(dist.inverse_cdf(shaped), np.asarray(np.interp(shaped, dist.cdf, dist.grid)))


def test_sampling_holds_one_array_of_draws():
    dist = outcome_distribution(SKEW, gaussian_sharp_family(SKEW))
    n = 1_000_000
    tracemalloc.start()
    try:
        sample_outcomes(dist, n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n <= peak < 8 * n * 1.5


def interp_sampler(dist, n, seed):
    """Reference sampler: the trapezoid CDF inverted by np.interp."""
    grid = dist.grid
    dens = np.maximum(np.asarray(dist.pdf(grid), dtype=float), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return np.interp(np.random.default_rng(seed).random(n), cdf, grid)


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "r, theta, phi, eps, seed",
    [
        (0.5, PI / 2, 3 * PI / 4, 0.0, 1),
        (0.95, PI / 3, 0.3, 0.5, 2),
        (0.95, 2.5, -2.0, -0.5, 3),
        (0.1, 0.2, 1.0, 0.25, 4),
        (0.8, PI / 2, -0.5, -0.5, 5),
    ],
)
def test_sampling_equals_interp_inversion_bit_for_bit(r, theta, phi, eps, seed):
    ctx = EstimationContext(QubitState(r, theta, phi), eps=eps)
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    n = 100_003
    assert same_bits(sample_outcomes(dist, n, seed), interp_sampler(dist, n, seed))


def crafted_cdf():
    """A CDF with a leading zero stretch, subnormal increments (slopes that
    overflow), a long flat middle, a spike and a flat top."""
    dens = np.concatenate([
        np.zeros(40),
        np.full(20, 1e-310),
        np.linspace(0.0, 3.0, 300),
        np.zeros(2500),
        np.full(5, 1e3),
        np.linspace(1.0, 0.0, 400),
        np.zeros(60),
    ])
    grid = np.linspace(-1.0, 2.0, dens.size)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    return cdf, grid


@pytest.mark.parametrize("n", [1, 2**15 - 1, 2**15 + 1, 100_000])
def test_invert_cdf_equals_interp_on_crafted_cdf(n):
    cdf, grid = crafted_cdf()
    steps = np.diff(cdf)
    assert np.any(steps == 0.0)
    assert np.any((steps > 0.0) & (steps < (grid[1] - grid[0]) / np.finfo(float).max))
    u = np.random.default_rng(n).random(n)
    special = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0]])
    u[: special.size] = special[:n]
    assert same_bits(_inverse_cdf(cdf, grid)(u), np.interp(u, cdf, grid))


def test_sampling_clt_agreement():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    n = 100_000
    draws = sample_outcomes(dist, n, seed=20260810)
    dev = draws - STANDARD.phi
    mean_se = np.std(draws, ddof=1) / math.sqrt(n)
    assert abs(np.mean(draws) - STANDARD.phi) <= 3.0 * mean_se
    sq = dev * dev
    var_se = np.std(sq, ddof=1) / math.sqrt(n)
    assert abs(np.mean(sq) - oracle.variance) <= 3.0 * var_se


def test_sampling_variance_tightens_with_n():
    oracle = SharpOracle(3.0)
    ctx = standard_ctx()
    dist = outcome_distribution(ctx, gaussian_sharp_family(ctx))
    errs = []
    for n in (10_000, 100_000):
        draws = sample_outcomes(dist, n, seed=7)
        errs.append(abs(np.mean((draws - STANDARD.phi) ** 2) - oracle.variance))
    assert errs[1] <= errs[0]


# ------------------------------------------------------------------- tabulated
def test_tabulated_family_interpolates_nodes():
    grid = np.linspace(-1.0, 1.0, 9)
    vals = 0.25 * (1.0 + 0.5 * np.cos(grid))
    fam = tabulated_family(grid, vals, np.zeros_like(grid), np.zeros_like(grid))
    assert np.max(np.abs(np.asarray(fam.elements(grid)[0]) - vals)) <= 1e-15
    assert fam.center == 0.0
    # window inferred from the tabulation extremes
    assert fam.window == (-1.0, 1.0)


def test_tabulated_family_validation_errors():
    grid = np.linspace(0.0, 1.0, 5)
    zeros = np.zeros_like(grid)
    with pytest.raises(ValueError, match="increasing"):
        tabulated_family(grid[::-1], zeros, zeros, zeros)
    with pytest.raises(ValueError, match="shape"):
        tabulated_family(grid, zeros[:-1], zeros, zeros)
    with pytest.raises(ValueError, match="two"):
        tabulated_family(grid[:1], zeros[:1], zeros[:1], zeros[:1])


def test_csv_table_whose_slope_overflows_is_rejected_on_load(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"{HEADER}\n-1,0.5,1.7e308,0\n1,0.5,-1.7e308,0\n", encoding="utf-8")
    message = f"{path}: column x12 has a non-finite slope between rows 1 and 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_tabulated_csv(path)


def test_csv_table_whose_phi_hat_does_not_increase_names_its_file(tmp_path):
    path = tmp_path / "order.csv"
    for body in ("0.5,0.5,0,0\n0.25,0.5,0,0\n", "0.5,0.5,0,0\n0.5,0.5,0,0\n"):
        path.write_text(f"{HEADER}\n{body}", encoding="utf-8")
        message = f"{path}: phi_hat column must be strictly increasing"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_tabulated_csv(path)


def test_tabulated_family_rejects_overflowing_slopes_and_windows():
    grid = np.arange(4.0)
    half = np.full(4, 0.5)
    big = np.array([0.0, 1.7e308, -1.7e308, 0.0])
    for name in ("x11", "x12", "y12"):
        cols = {"x11": half, "x12": np.zeros(4), "y12": np.zeros(4), name: big}
        with pytest.raises(ValueError, match=f"^column {name} has a non-finite slope between rows 2 and 3$"):
            tabulated_family(grid, cols["x11"], cols["x12"], cols["y12"])
    # a finite difference over a subnormal step
    with pytest.raises(ValueError, match="^column x11 has a non-finite slope between rows 1 and 2$"):
        tabulated_family([0.0, 1e-310, 1.0], [0.5, 1.0, 0.5], np.zeros(3), np.zeros(3))
    for span in ([0.0, math.inf], [-math.inf, 0.0], [-1e308, 0.0, 1e308]):
        with pytest.raises(ValueError, match="^phi_hat column must span a finite window$"):
            tabulated_family(span, np.full(len(span), 0.5), np.zeros(len(span)), np.zeros(len(span)))


def test_tabulated_family_copies_its_columns():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 41)
    cols = [np.asarray(col, dtype=float) for col in base.elements(grid)[:3]]
    fam = tabulated_family(grid, *cols)
    before = validate_povm(fam, ctx).as_dict()
    grid += 0.5
    for col in cols:
        col *= 3.0
    assert validate_povm(fam, ctx).as_dict() == before


def test_uniform_family_is_complete():
    ctx = standard_ctx()
    fam = uniform_diagonal_family(ctx.center)
    rep = validate_povm(fam, ctx)
    assert rep.completeness_residual <= 1e-9
    assert rep.all_ok


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "family.csv"
    grid = np.linspace(-PI, PI, 21)
    flat = np.full_like(grid, 1.0 / (2.0 * PI))
    lines = ["phi_hat,x11,x12,y12"]
    for i in range(grid.size):
        lines.append(f"{float(grid[i])!r},{float(flat[i])!r},0.0,0.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fam = load_tabulated_csv(path)
    assert abs(fam.center) <= 1e-12
    pts = np.linspace(-3.0, 3.0, 11)
    assert np.max(np.abs(np.asarray(fam.elements(pts)[0]) - 1.0 / (2.0 * PI))) <= 1e-15


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,1,0,0\n1,1,0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_tabulated_csv(path)


def test_csv_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "repr.csv"
    path.write_text("phi_hat,x11,x12,y12\n-1.0,0.5,0,0\nnp.float64(0.5),0.5,0,0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:") + ".*np.float64"):
        load_tabulated_csv(path)


def _reference_rows(path):
    """load_tabulated_csv's csv.reader + float() loop, kept here as the
    reference the loader must match: the (n, 4) array it hands to
    tabulated_family, or the error it raises."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty POVM table")
            expected = ["phi_hat", "x11", "x12", "y12"]
            if [h.strip() for h in header] != expected:
                raise ValueError(f"{path}: header must be {','.join(expected)}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 4 columns")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least two rows")
    return np.asarray(rows, dtype=float)


def _loaded_rows(path):
    """The columns load_tabulated_csv hands to tabulated_family, as (n, 4)."""
    with mock.patch.object(measurement, "tabulated_family",
                           lambda *cols, label: np.column_stack(cols)):
        return load_tabulated_csv(path)


def _outcome(load, path):
    """The rows as uint64 bit patterns, or the exception class and message."""
    try:
        return load(path).view(np.uint64).tolist()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_loader_matches_reference(path, data: bytes):
    path.write_bytes(data)
    want = _outcome(_reference_rows, path)
    assert _outcome(_loaded_rows, path) == want, data


HEADER = "phi_hat,x11,x12,y12"
ROW = "0.25,0.5,0,0"
LAST = "1.0,0.5,0,0"
# bodies whose first line carries the case; blank and padded lines included
LOADER_CASES = {
    "repr": "-1.0,0.15915494309189535,0.0,-0.0\n2.5,1e-300,5e-324,1.7976931348623157e+308\n",
    "np.float64": "np.float64(0.5),0.5,0,0\n" + LAST + "\n",
    "underscores": "1_000,0.5,0,0\n2_000.5,0.5,0,0\n",
    "unicode digits": "\u0661\u0662,\uff11,\u0967.5,0\n20,0.5,0,0\n",
    "nbsp padding": "\xa00.25\xa0,0.5,0,0\n" + LAST + "\n",
    "whitespace padding": " 0.25 ,\t0.5\t,  0,0  \n" + LAST + "\n",
    "other unicode spaces": "\u20000.25\u3000,\u20280.5,\x850,0\n" + LAST + "\n",
    "nan and inf": "nan,-inf,Infinity,-nan\n+inf,NaN,-Infinity,iNf\n",
    "bad exponent": ROW + "\n1e,0.5,0,0\n",
    "hash": ROW + "\n1.0,0.5,0,0#\n",
    "hash line": ROW + "\n# comment\n" + LAST + "\n",
    "quoted cells": '"0.25",0.5,"0",0\n' + LAST + "\n",
    "quoted comma": '"0,25",0.5,0\n' + LAST + "\n",
    "crlf": ROW + "\r\n" + LAST + "\r\n",
    "bare cr": ROW + "\r" + LAST + "\r",
    "mixed line ends": ROW + "\r\n\r" + LAST + "\n\r\n",
    "blank lines": "\n\n" + ROW + "\n\n\n" + LAST + "\n\n",
    "whitespace-only line": ROW + "\n   \n" + LAST + "\n",
    "tab-only line": ROW + "\n\t\n" + LAST + "\n",
    "trailing comma": ROW + ",\n" + LAST + ",\n",
    "3 columns": "0.25,0.5,0\n1.0,0.5,0\n",
    "5 columns": ROW + ",0\n" + LAST + ",0\n",
    "ragged": ROW + "\n1.0,0.5,0\n",
    "empty cell": "0.25,,0,0\n" + LAST + "\n",
    "comma only line": ROW + "\n,,,\n" + LAST + "\n",
    "empty body": "",
    "blank body": "\n\r\n\r",
    "single row": ROW + "\n",
    "no final line end": ROW + "\n" + LAST,
    "nul in cell": ROW + "\n1.0\x00,0.5,0,0\n",
    "nul before extra cell": ROW + "\n" + LAST + "\x00,9\n",
    "ascii separators": "\x1c0.25,0.5\x1f,0,0\n" + LAST + "\n",
    "vertical tab and form feed": "\x0b0.25,0.5\x0c,0,0\n" + LAST + "\n",
    "hex and complex": "0x10,1j,0,0\n" + LAST + "\n",
    "field over the csv limit": " " * (csv.field_size_limit() + 1) + "0.25,0.5,0,0\n" + LAST + "\n",
}
# str.splitlines breaks a line at each of these, the file reader does not
for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
    LOADER_CASES[f"U+{ord(ch):04X} inside a row"] = ROW + ch + LAST + "\n" + ROW + "\n"


@pytest.mark.parametrize("body", LOADER_CASES.values(), ids=LOADER_CASES.keys())
def test_csv_loader_matches_row_loop(tmp_path, body):
    _assert_loader_matches_reference(tmp_path / "t.csv", (HEADER + "\n" + body).encode("utf-8"))


@pytest.mark.parametrize("data", [b"", HEADER.encode(), b"a,b,c,d\n" + ROW.encode(),
                                  (HEADER + "\n" + ROW + "\n").encode() + b"\xff,0,0,0\n",
                                  # the bad row is read and named before the
                                  # decoder reaches the bad byte
                                  (HEADER + "\n" + ROW + "\n1,2\n" + (ROW + "\n") * 2000).encode()
                                  + b"\xff\n"],
                         ids=["empty file", "header only", "bad header", "bad utf-8", "bad row before bad utf-8"])
def test_csv_loader_matches_row_loop_on_whole_files(tmp_path, data):
    _assert_loader_matches_reference(tmp_path / "t.csv", data)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(values=st.lists(st.lists(st.floats(), min_size=4, max_size=4), max_size=12),
       end=LINE_ENDS, blank=st.integers(0, 12))
def test_csv_loader_matches_row_loop_on_repr_tables(tmp_path_factory, values, end, blank):
    lines = [",".join(repr(float(x)) for x in row) for row in values]
    lines.insert(min(blank, len(lines)), "")
    data = end.join([HEADER, *lines, ""]).encode("utf-8")
    path = tmp_path_factory.mktemp("repr") / "t.csv"
    _assert_loader_matches_reference(path, data)


CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0.5", " 1 ", "\t2", "1_0", "nan", "-inf", "Infinity", "1e", "#",
                     '"3"', "", " ", "\xa04", "\x1c5", "\x006", "\u0665", "np.float64(0.5)"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(CELLS, min_size=0, max_size=6), max_size=6), end=LINE_ENDS)
def test_csv_loader_matches_row_loop_on_arbitrary_cells(tmp_path_factory, rows, end):
    data = end.join([HEADER, *(",".join(row) for row in rows), ""]).encode("utf-8")
    path = tmp_path_factory.mktemp("cells") / "t.csv"
    _assert_loader_matches_reference(path, data)


def test_csv_cell_over_the_field_limit_names_its_line(tmp_path):
    # in the header too, which the fast path reads with csv.reader
    path = tmp_path / "wide.csv"
    wide = " " * (csv.field_size_limit() + 1)
    for text, line in ((f"{HEADER}\n{ROW}\n{wide}{LAST}\n", 3),
                       (f"phi_hat{wide},x11,x12,y12\n{ROW}\n{LAST}\n", 1)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: field larger than field limit")):
            load_tabulated_csv(path)


def test_csv_loader_parses_plain_tables_in_one_call(tmp_path):
    path = tmp_path / "t.csv"
    grid = np.linspace(-PI, PI, 301)
    lines = [HEADER, *(f"{x!r},{1.0 / (2.0 * PI)!r},0.0,{0.1 * x!r}" for x in grid.tolist())]
    path.write_text("\r\n".join(lines) + "\r\n\r\n", encoding="utf-8")
    with mock.patch.object(measurement, "_parse_rows", side_effect=AssertionError("row loop")):
        fam = load_tabulated_csv(path)
    assert fam.discontinuities == tuple(grid[1:-1].tolist())
