import math
import re

import numpy as np
import pytest

from qbound.measurement import (
    EstimationContext,
    PovmFamily,
    _invert_cdf,
    estimator_moments,
    gaussian_sharp_family,
    load_tabulated_csv,
    outcome_distribution,
    sample_outcomes,
    tabulated_family,
    tapered_sharp_family,
    validate_povm,
)
from qbound.quadrature import QuadSpec, integrate_1d
from qbound.qubit import DomainError, QubitState

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
    total = integrate_1d(fam.x11, lo, hi, fam.quad_spec())
    assert abs(total - 1.0) <= 1e-10


def test_sharp_family_edge_value():
    oracle = SharpOracle(3.0)
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    assert abs(float(fam.x11(hi)) - oracle.x11_edge) <= 1e-14
    assert abs(float(fam.x11(lo)) - float(fam.x11(hi))) <= 1e-16


def test_sharp_family_eigenvalues():
    fam = gaussian_sharp_family(standard_ctx())
    lo, hi = fam.window
    u = np.linspace(lo, hi, 4001)
    u = u[np.abs(u - fam.center) > 1e-9]
    lam1, lam2 = fam.eigenvalues(u)
    assert np.max(np.abs(lam1)) <= 1e-12
    assert np.max(np.abs(lam2 - 2.0 * np.asarray(fam.x11(u)))) <= 1e-12
    # at the center the sign factor is zero and both eigenvalues collapse
    c1, c2 = fam.eigenvalues(fam.center)
    assert abs(c1 - c2) <= 1e-15


def test_sharp_family_matrix_is_hermitian():
    fam = gaussian_sharp_family(standard_ctx())
    mats = fam.matrix(np.linspace(*fam.window, 11))
    assert np.max(np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1))))) <= 1e-15


def test_sharp_family_rejects_bad_sigma():
    with pytest.raises(DomainError):
        gaussian_sharp_family(standard_ctx(), sigma=0.0)


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
    fd_x11 = (np.asarray(fam_up.x11(pts)) - np.asarray(fam_dn.x11(pts))) / (2 * h)
    assert np.max(np.abs(fd_x11 - np.asarray(fam.d_x11(pts)))) <= 1e-6
    fd_x12 = (np.asarray(fam_up_c.x12(pts)) - np.asarray(fam_dn_c.x12(pts))) / (2 * h)
    assert np.max(np.abs(fd_x12 - np.asarray(fam.d_x12(pts)))) <= 1e-6
    fd_y12 = (np.asarray(fam_up_c.y12(pts)) - np.asarray(fam_dn_c.y12(pts))) / (2 * h)
    assert np.max(np.abs(fd_y12 - np.asarray(fam.d_y12(pts)))) <= 1e-6


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


def test_validate_flags_unnormalized_family():
    ctx = standard_ctx()
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 17)
    fam = tabulated_family(grid, np.full_like(grid, 1.0 / PI), np.zeros_like(grid),
                           np.zeros_like(grid))
    rep = validate_povm(fam, ctx)
    assert abs(rep.completeness_residual - 1.0) <= 1e-9
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
    assert abs(float(fam.x11(lo))) <= 1e-15
    assert abs(float(fam.x11(hi))) <= 1e-15
    # small eigenvalue is (1 - scale) * x11
    u = np.linspace(lo, hi, 101)[1:-1]
    lam1, _ = fam.eigenvalues(u)
    assert np.max(np.abs(lam1 - 0.3 * np.asarray(fam.x11(u)))) <= 1e-12


# ---------------------------------------------------------------- distribution
def test_outcome_density_equals_x11_at_construction_angle():
    ctx = standard_ctx()
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 501)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.x11(pts)))) <= 1e-15


def test_outcome_density_maximally_mixed():
    state = QubitState(0.0, PI / 2, 3 * PI / 4)
    ctx = EstimationContext(state)
    fam = gaussian_sharp_family(ctx)
    dist = outcome_distribution(ctx, fam)
    pts = np.linspace(*fam.window, 201)
    assert np.max(np.abs(dist.pdf(pts) - np.asarray(fam.x11(pts)))) <= 1e-16


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
        return 3.0 * np.asarray(base.x11(u))

    bogus = PovmFamily(
        center=base.center,
        x11=base.x11,
        x12=big_offdiag,
        y12=base.y12,
        d_x11=base.d_x11,
        d_x12=base.d_x12,
        d_y12=base.d_y12,
        discontinuities=base.discontinuities,
    )
    with pytest.raises(DomainError, match=r"phi_hat = -?\d[\d.e+-]*$"):
        outcome_distribution(ctx, bogus)


# ----------------------------------------------------------------- family grid
def test_family_grid_is_built_once_per_spec():
    fam = gaussian_sharp_family(standard_ctx())
    spec = fam.quad_spec()
    assert fam.grid(spec) is fam.grid(spec)
    assert fam.grid() is fam.grid(spec)
    doubled = fam.grid(spec.doubled())
    assert doubled is not fam.grid(spec)
    assert doubled.x.size == 2 * fam.grid(spec).x.size


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


def interp_sampler(dist, n, seed):
    """Reference sampler: the trapezoid CDF inverted by np.interp."""
    grid = dist.grid()
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
    assert same_bits(_invert_cdf(u, cdf, grid), np.interp(u, cdf, grid))


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
    assert np.max(np.abs(np.asarray(fam.x11(grid)) - vals)) <= 1e-15
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


def test_tabulated_family_copies_its_columns():
    ctx = standard_ctx()
    base = gaussian_sharp_family(ctx)
    grid = np.linspace(ctx.center - PI, ctx.center + PI, 41)
    cols = [np.asarray(f(grid), dtype=float) for f in (base.x11, base.x12, base.y12)]
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
    assert np.max(np.abs(np.asarray(fam.x11(pts)) - 1.0 / (2.0 * PI))) <= 1e-15


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
